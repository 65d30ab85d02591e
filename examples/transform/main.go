// Transform demonstrates the paper's Section 2.2 automation: a sequential
// Fortran-style loop annotated with doconsider is parsed, analyzed for the
// array it writes and the indirect reads that carry dependences, and
// executed through the inspector/executor runtime; the result is checked
// bit for bit against the loop's sequential semantics.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/transform"
	"doconsider/internal/vec"
)

const src = `
doconsider i = 0, n-1
  x(i) = x(i) + b(i)*x(ia(i))
enddo
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "transform:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Print("Input loop:", src, "\n")
	loop, err := transform.Parse(src)
	if err != nil {
		return err
	}
	an, err := transform.Analyze(loop)
	if err != nil {
		return err
	}
	fmt.Printf("Analysis: writes %q; %d direct read(s), %d indirect read(s); index arrays %v\n\n",
		an.Written, an.SelfReads, an.IndirectReads, an.IntArrays)

	// Bind run-time data and execute through the runtime.
	const n = 50000
	rng := rand.New(rand.NewSource(3))
	env := transform.NewEnv()
	x := make([]float64, n)
	b := make([]float64, n)
	ia := make([]int32, n)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		b[i] = 0.3 * rng.NormFloat64()
		ia[i] = int32(rng.Intn(n))
	}
	env.Float["x"] = x
	env.Float["b"] = b
	env.Int["ia"] = ia
	env.Scalars["n"] = n

	// Reference sequential run on a copy.
	envSeq := transform.NewEnv()
	envSeq.Float["x"] = append([]float64(nil), x...)
	envSeq.Float["b"] = b
	envSeq.Int["ia"] = ia
	envSeq.Scalars["n"] = n
	if err := an.RunSequential(envSeq); err != nil {
		return err
	}

	deps, err := an.Inspect(env)
	if err != nil {
		return err
	}
	rt, err := core.New(deps,
		core.WithProcs(runtime.GOMAXPROCS(0)),
		core.WithExecutor(executor.SelfExecuting))
	if err != nil {
		return err
	}
	body, err := an.ExecutorBody(env)
	if err != nil {
		return err
	}
	m := rt.Run(body)
	fmt.Printf("Executed %d iterations over %d wavefronts (%d dependence checks)\n",
		m.Executed, rt.NumWavefronts(), m.SpinChecks)
	if d := vec.MaxAbsDiff(env.Float["x"], envSeq.Float["x"]); d != 0 {
		return fmt.Errorf("transformed execution differs by %g", d)
	}
	fmt.Println("Transformed execution matches sequential semantics exactly.")
	return nil
}
