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

// TestNoFusedMultiplyAdd cross-compiles this package for arm64, riscv64
// and loong64 — the architectures whose compilers fuse `acc -= v*x`
// without the kernel's explicit conversion — with the compiler's
// assembly listing and fails on any fused multiply-add: a fused site
// rounds once where amd64 rounds twice, so replicas on two architectures
// would return different bits for one solve. It needs only the local toolchain, no network.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, arch := range []string{"arm64", "riscv64", "loong64"} {
		cmd := exec.Command(gotool, "build", "-o", os.DevNull, "-gcflags=doconsider/internal/trisolve=-S", ".")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: go build: %v\n%s", arch, err, out)
		}
		if sites := fusedOps.FindAll(out, -1); len(sites) > 0 {
			t.Errorf("%s: %d fused multiply-add instructions in the kernel", arch, len(sites))
		}
	}
}
