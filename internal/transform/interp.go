package transform

import (
	"fmt"
	"math"

	"doconsider/internal/executor"
	"doconsider/internal/wavefront"
)

// Env binds the arrays and scalars a loop references. Float arrays hold
// the numeric data; Int arrays hold subscript/indirection data (the
// paper's ia and ija structures); Scalars hold loop-invariant bounds such
// as n.
type Env struct {
	Float   map[string][]float64
	Int     map[string][]int32
	Scalars map[string]int
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		Float:   map[string][]float64{},
		Int:     map[string][]int32{},
		Scalars: map[string]int{},
	}
}

// locals is what an expression is evaluated against besides the Env: the
// scalars one walk of the loop body has bound (loop variables and
// temporaries), the outer iteration it walks, and the route that serves
// reads of the written array. The zero value binds nothing and reads
// every array as the Env binds it.
type locals struct {
	vars  map[string]float64
	iter  int
	route *route
}

// route is all that differs between the three walks of a loop body —
// Inspect's, ExecutorBody's and RunSequential's: how a read of the
// written array is served, and whether an array assignment is stored.
type route struct {
	written string
	read    func(iter, sub int) float64 // serves written(sub) to iteration iter; sub is in range
	x       []float64                   // the live written array assignments store to; nil stores nothing
}

// evalInt evaluates an expression in integer context (subscripts, bounds).
func (env *Env) evalInt(e Expr, loc locals) (int, error) {
	v, err := env.eval(e, loc, true)
	return int(v), err
}

// eval is the one expression evaluator. intCtx selects Int arrays before
// Float arrays for Ref lookups, matching Fortran integer/real array
// semantics; a value read of the written array goes to loc's route.
func (env *Env) eval(e Expr, loc locals, intCtx bool) (float64, error) {
	switch v := e.(type) {
	case Num:
		return v.Val, nil
	case Ident:
		if x, ok := loc.vars[v.Name]; ok {
			return x, nil
		}
		if x, ok := env.Scalars[v.Name]; ok {
			return float64(x), nil
		}
		return 0, fmt.Errorf("transform: unbound scalar %q", v.Name)
	case Ref:
		sub, err := env.evalInt(v.Sub, loc)
		if err != nil {
			return 0, err
		}
		f, isFloat := env.Float[v.Name]
		ints, isInt := env.Int[v.Name]
		useInt := isInt && (intCtx || !isFloat)
		n := len(f)
		if useInt {
			n = len(ints)
		}
		switch {
		case !isFloat && !isInt:
			return 0, fmt.Errorf("transform: unbound array %q", v.Name)
		case sub < 0 || sub >= n:
			return 0, fmt.Errorf("transform: %s(%d) out of range", v.Name, sub)
		case useInt:
			return float64(ints[sub]), nil
		case loc.route != nil && v.Name == loc.route.written:
			return loc.route.read(loc.iter, sub), nil
		}
		return f[sub], nil
	case Bin:
		l, err := env.eval(v.L, loc, intCtx)
		if err != nil {
			return 0, err
		}
		r, err := env.eval(v.R, loc, intCtx)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			if r == 0 {
				return 0, fmt.Errorf("transform: division by zero")
			}
			return l / r, nil
		}
		return 0, fmt.Errorf("transform: unknown operator %q", v.Op)
	case Neg:
		x, err := env.eval(v.X, loc, intCtx)
		return -x, err
	}
	return 0, fmt.Errorf("transform: unknown expression %T", e)
}

// exec is the one statement walker: it runs stmts for loc's iteration.
// The only array a body assigns is the written one, at the loop variable
// (Analyze), so a stored value goes to x(iter).
func (env *Env) exec(stmts []Stmt, loc locals) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case Assign:
			v, err := env.eval(s.RHS, loc, false)
			if err != nil {
				return err
			}
			if s.Array == "" {
				loc.vars[s.Scalar] = v
			} else if x := loc.route.x; x != nil {
				x[loc.iter] = v
			}
		case InnerLoop:
			jlo, err := env.evalInt(s.Lo, loc)
			if err != nil {
				return err
			}
			jhi, err := env.evalInt(s.Hi, loc)
			if err != nil {
				return err
			}
			for j := jlo; j <= jhi; j++ {
				loc.vars[s.Var] = float64(j)
				if err := env.exec(s.Body, loc); err != nil {
					return err
				}
			}
			delete(loc.vars, s.Var)
		}
	}
	return nil
}

// walk runs the loop body for outer iteration i on route r. Each walk
// binds its own scalars, so concurrent iterations share no temporaries.
func (a *Analysis) walk(env *Env, r *route, i int) error {
	loc := locals{vars: map[string]float64{a.Loop.Var: float64(i)}, iter: i, route: r}
	if err := env.exec(a.Loop.Body, loc); err != nil {
		return fmt.Errorf("iteration %d: %w", i, err)
	}
	return nil
}

// Bounds evaluates the outer loop's inclusive bounds and checks that every
// iteration's write lands inside the written array: the array is bound,
// lo >= 0 and, unless the loop is empty, hi < len(x). Inspect,
// ExecutorBody and RunSequential all start here, so a binding that does
// not fit the loop is an error before any iteration runs.
func (a *Analysis) Bounds(env *Env) (lo, hi int, err error) {
	lo, err = env.evalInt(a.Loop.Lo, locals{})
	if err != nil {
		return 0, 0, err
	}
	hi, err = env.evalInt(a.Loop.Hi, locals{})
	if err != nil {
		return 0, 0, err
	}
	x, ok := env.Float[a.Written]
	switch {
	case !ok:
		return 0, 0, fmt.Errorf("transform: written array %q not bound", a.Written)
	case hi >= lo && (lo < 0 || hi >= len(x)):
		return 0, 0, fmt.Errorf("transform: loop %s = %d, %d writes outside %s(0:%d)",
			a.Loop.Var, lo, hi, a.Written, len(x)-1)
	}
	return lo, hi, nil
}

// Inspect is the run-time inspector (the scheduling procedure of paper
// Section 1): it walks the loop body for each outer iteration and records
// a dependence on the producing iteration the first time a read of the
// written array refers to an earlier one; repeated reads of it add
// nothing, so the executor checks each dependence once. References to
// the current or later iterations read old values (Figure 4's xold) and
// impose no ordering.
// The inspector stores nothing and serves each read as NaN, a value the
// loop has not computed yet; Analyze guarantees none reaches a subscript
// or a bound, so the walk sees every dependence the executor will.
func (a *Analysis) Inspect(env *Env) (*wavefront.Deps, error) {
	lo, hi, err := a.Bounds(env)
	if err != nil {
		return nil, err
	}
	var deps []int32
	// seen[t] == i+1 once iteration lo+i has recorded its dependence on
	// lo+t.
	seen := make([]int32, max(hi-lo+1, 0))
	r := &route{written: a.Written, read: func(iter, sub int) float64 {
		if sub >= lo && sub < iter && seen[sub-lo] != int32(iter-lo+1) {
			seen[sub-lo] = int32(iter - lo + 1)
			deps = append(deps, int32(sub-lo))
		}
		return math.NaN()
	}}
	adj := make([][]int32, len(seen))
	for i := lo; i <= hi; i++ {
		deps = nil
		if err := a.walk(env, r, i); err != nil {
			return nil, err
		}
		adj[i-lo] = deps
	}
	return wavefront.FromAdjacency(adj), nil
}

// figure4 is the route of the transformed loop (paper Figure 4) and of
// the sequential reference: a read of a strictly later iteration is served
// from xold, the written array as it was when the route was made; the
// current iteration reads its own live value (it may have partially
// updated it, as in the Figure 8 triangular solve), and earlier iterations
// read the live array, which the executor has synchronized.
func (a *Analysis) figure4(env *Env) *route {
	x := env.Float[a.Written]
	xold := append([]float64(nil), x...)
	return &route{written: a.Written, x: x, read: func(iter, sub int) float64 {
		if sub > iter {
			return xold[sub]
		}
		return x[sub]
	}}
}

// ExecutorBody returns an executor loop body that interprets the original
// loop body for one outer iteration under the Figure 4 read rule, with
// xold captured at ExecutorBody's call.
//
// The body's index i is the iteration's offset from the loop's lower
// bound, the numbering Inspect gives its dependences. An error inside
// the body panics; the runtime's RunCtx returns it as an
// *executor.PanicError.
func (a *Analysis) ExecutorBody(env *Env) (executor.Body, error) {
	lo, _, err := a.Bounds(env)
	if err != nil {
		return nil, err
	}
	r := a.figure4(env)
	return func(i int32) {
		if err := a.walk(env, r, lo+int(i)); err != nil {
			panic(err)
		}
	}, nil
}

// RunSequential interprets the loop with the original sequential
// semantics, for verification of the transformed execution. It runs the
// Figure 4 route in iteration order, which is the sequential loop: a
// read of a later iteration sees a value not yet written in this sweep.
func (a *Analysis) RunSequential(env *Env) error {
	lo, hi, err := a.Bounds(env)
	if err != nil {
		return err
	}
	r := a.figure4(env)
	for i := lo; i <= hi; i++ {
		if err := a.walk(env, r, i); err != nil {
			return err
		}
	}
	return nil
}
