package trisolve

import (
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// fusedOps are the float64 fused multiply-add instructions of the
// architectures whose compilers fuse a multiply and add: FMADDD and kin
// on arm64, riscv64 and loong64, FMADD and kin on ppc64le and s390x.
var fusedOps = regexp.MustCompile(`\bF(N)?M(ADD|SUB)D?\b`)

// fmaFreePackages must compile without a fused multiply-add: this
// package's kernel, whose replicas must agree bit for bit; the cost
// simulator with the table and model drivers over it, whose results
// golden files pin bit for bit and byte for byte; and the Krylov solve —
// its vector kernels, matvec, incomplete factorization and iterations —
// whose golden pins every solve's bits.
var fmaFreePackages = []string{
	"doconsider/internal/trisolve",
	"doconsider/internal/machine",
	"doconsider/internal/tables",
	"doconsider/internal/model",
	"doconsider/internal/vec",
	"doconsider/internal/sparse",
	"doconsider/internal/ilu",
	"doconsider/internal/krylov",
}

// TestNoFusedMultiplyAdd cross-compiles fmaFreePackages for arm64,
// riscv64, loong64, ppc64le and s390x — the architectures whose compilers
// fuse `acc -= v*x` without an explicit conversion — with the compiler's
// assembly listing and fails on any fused multiply-add: a fused site
// rounds once where amd64 rounds twice, so two architectures would return
// different bits for one solve or one simulated run. It needs only the
// local toolchain, no network.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, arch := range []string{"arm64", "riscv64", "loong64", "ppc64le", "s390x"} {
		for _, pkg := range fmaFreePackages {
			cmd := exec.Command(gotool, "build", "-o", os.DevNull, "-gcflags="+pkg+"=-S", pkg)
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %s: go build: %v\n%s", arch, pkg, err, out)
			}
			if sites := fusedOps.FindAll(out, -1); len(sites) > 0 {
				t.Errorf("%s %s: %d fused multiply-add instructions", arch, pkg, len(sites))
			}
		}
	}
}
