package krylov

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/problems"
	"doconsider/internal/trisolve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/krylov.golden from current solver output")

const goldenPath = "testdata/krylov.golden"

var methodNames = map[Method]string{MethodCG: "CG", MethodGMRES: "GMRES", MethodBiCGSTAB: "BiCGSTAB"}

// goldenCase is one whole preconditioned solve the golden pins: an
// ILU(0)-preconditioned method on a suite problem, b = A·1, x0 = 0.
type goldenCase struct {
	problem string
	method  Method
}

func (c goldenCase) key() string { return c.problem + "/" + methodNames[c.method] }

// goldenCases are GMRES and BiCGSTAB on every Table 1 problem and CG on
// the SPE problems; CG runs to its iteration limit on the convection
// stencils, whose matrices are not symmetric.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, name := range problems.Names() {
		if strings.HasPrefix(name, "SPE") {
			cs = append(cs, goldenCase{name, MethodCG})
		}
		cs = append(cs, goldenCase{name, MethodGMRES}, goldenCase{name, MethodBiCGSTAB})
	}
	return cs
}

// solveLine runs c preconditioned by prec with passes at most procs wide
// and renders it as one golden line: the iteration count, the convergence
// flag and error, the final residual's bits, and a hash of the residual
// history's and the solution's bits.
func solveLine(c goldenCase, prec Preconditioner, procs int) string {
	a := problems.MustGet(c.problem).A
	b := rhsForOnes(a)
	x := make([]float64, a.N)
	var hist []float64
	r, err := c.method.solve(a, x, b, prec, Options{Procs: procs, History: &hist})
	msg := "nil"
	if err != nil {
		msg = fmt.Sprintf("%q", err.Error())
	}
	return fmt.Sprintf("%s iters=%d converged=%t err=%s residual=%016x history=%s x=%s",
		c.key(), r.Iterations, r.Converged, msg, math.Float64bits(r.Residual), bitsHash(hist), bitsHash(x))
}

// goldenPrec is the ILU(0) preconditioner of problem under kind at procs
// processors, with a parallel numeric factorization if factorParallel.
func goldenPrec(t *testing.T, problem string, procs int, kind executor.Kind, factorParallel bool) *ILUPrec {
	t.Helper()
	prec, err := NewILUPrec(problems.MustGet(problem).A, ILUPrecOptions{
		Procs: procs, Kind: kind, Scheduler: trisolve.GlobalSched, FactorParallel: factorParallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prec
}

// bitsHash is the first 8 bytes of the SHA-256 of v's IEEE-754 bits.
func bitsHash(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// readGolden returns the golden's lines keyed by case.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenKrylov -update to create it)", err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, _, _ := strings.Cut(l, " ")
		lines[key] = l
	}
	return lines
}

// TestGoldenKrylov pins every golden case's whole solve, bit for bit, at
// the reference configuration: one processor, the sequential loop and the
// sequential numeric factorization. -update rewrites the file, only for
// an intended change of the iterations' arithmetic.
func TestGoldenKrylov(t *testing.T) {
	var lines []string
	for _, c := range goldenCases() {
		lines = append(lines, solveLine(c, goldenPrec(t, c.problem, 1, executor.Sequential, false), 1))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(lines) {
		t.Errorf("golden has %d cases, want %d", len(want), len(lines))
	}
	for _, got := range lines {
		if key, _, _ := strings.Cut(got, " "); got != want[key] {
			t.Errorf("\n got %s\nwant %s", got, want[key])
		}
	}
}

// TestGoldenKrylovGrid holds whole solves to the paper's contract: every
// method's golden bits come back for every processor count, executor
// kind and numeric factorization, on SPE1 (one block) and SPE3 (two).
func TestGoldenKrylovGrid(t *testing.T) {
	want := readGolden(t)
	kinds := []executor.Kind{executor.Sequential, executor.PreScheduled, executor.SelfExecuting, executor.DoAcross}
	for _, problem := range []string{"SPE1", "SPE3"} {
		for _, procs := range []int{1, 2, 3, 4, 16} {
			for _, kind := range kinds {
				for _, factorParallel := range []bool{false, true} {
					prec := goldenPrec(t, problem, procs, kind, factorParallel)
					for _, method := range []Method{MethodCG, MethodGMRES, MethodBiCGSTAB} {
						c := goldenCase{problem, method}
						if got := solveLine(c, prec, procs); got != want[c.key()] {
							t.Errorf("procs=%d kind=%v factor-parallel=%t:\n got %s\nwant %s", procs, kind, factorParallel, got, want[c.key()])
						}
					}
				}
			}
		}
	}
}
