package trisolve

import (
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// fusedOps are the fused multiply-add instructions of the architectures
// whose compilers fuse a float64 multiply and add.
var fusedOps = regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// fmaFreePackages must compile without a fused multiply-add: this
// package's kernel, whose replicas must agree bit for bit, and the cost
// simulator with the table and model drivers over it, whose results
// golden files pin bit for bit and byte for byte.
var fmaFreePackages = []string{
	"doconsider/internal/trisolve",
	"doconsider/internal/machine",
	"doconsider/internal/tables",
	"doconsider/internal/model",
}

// TestNoFusedMultiplyAdd cross-compiles fmaFreePackages for arm64,
// riscv64 and loong64 — the architectures whose compilers fuse `acc -= v*x`
// without an explicit conversion — with the compiler's assembly listing
// and fails on any fused multiply-add: a fused site rounds once where
// amd64 rounds twice, so two architectures would return different bits
// for one solve or one simulated run. It needs only the local toolchain,
// no network.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, arch := range []string{"arm64", "riscv64", "loong64"} {
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
