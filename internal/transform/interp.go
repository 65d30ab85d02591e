package transform

import (
	"fmt"

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

// locals are per-iteration scalar bindings (loop variables, temporaries).
type locals map[string]float64

// evalInt evaluates an expression in integer context (subscripts, bounds).
func (env *Env) evalInt(e Expr, loc locals) (int, error) {
	v, err := env.eval(e, loc, true)
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// eval evaluates an expression. intCtx selects Int arrays before Float
// arrays for Ref lookups, matching Fortran integer/real array semantics.
func (env *Env) eval(e Expr, loc locals, intCtx bool) (float64, error) {
	switch v := e.(type) {
	case Num:
		return v.Val, nil
	case Ident:
		if x, ok := loc[v.Name]; ok {
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
		if intCtx {
			if arr, ok := env.Int[v.Name]; ok {
				if sub < 0 || sub >= len(arr) {
					return 0, fmt.Errorf("transform: %s(%d) out of range", v.Name, sub)
				}
				return float64(arr[sub]), nil
			}
		}
		if arr, ok := env.Float[v.Name]; ok {
			if sub < 0 || sub >= len(arr) {
				return 0, fmt.Errorf("transform: %s(%d) out of range", v.Name, sub)
			}
			return arr[sub], nil
		}
		if arr, ok := env.Int[v.Name]; ok {
			if sub < 0 || sub >= len(arr) {
				return 0, fmt.Errorf("transform: %s(%d) out of range", v.Name, sub)
			}
			return float64(arr[sub]), nil
		}
		return 0, fmt.Errorf("transform: unbound array %q", v.Name)
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
// Section 1): for each outer iteration it walks the loop body, evaluating
// the subscripts of every read of the written array, and records a
// dependence on the producing iteration whenever the subscript refers to
// an earlier iteration. References to the current or later iterations
// read old values (Figure 4's xold) and impose no ordering.
func (a *Analysis) Inspect(env *Env) (*wavefront.Deps, error) {
	lo, hi, err := a.Bounds(env)
	if err != nil {
		return nil, err
	}
	n := hi - lo + 1
	if n < 0 {
		n = 0
	}
	adj := make([][]int32, n)
	for i := lo; i <= hi; i++ {
		loc := locals{a.Loop.Var: float64(i)}
		var deps []int32
		collect := func(sub int) {
			if sub >= lo && sub < i {
				deps = append(deps, int32(sub-lo))
			}
		}
		if err := a.inspectStmts(env, a.Loop.Body, loc, collect); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		adj[i-lo] = deps
	}
	return wavefront.FromAdjacency(adj), nil
}

func (a *Analysis) inspectStmts(env *Env, stmts []Stmt, loc locals, collect func(int)) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case Assign:
			if err := a.inspectExpr(env, s.RHS, loc, collect); err != nil {
				return err
			}
			// Scalar assignments may feed later subscripts; evaluate them so
			// the inspector sees the same locals the executor will.
			if s.Scalar != "" {
				v, err := env.eval(s.RHS, loc, false)
				if err != nil {
					return err
				}
				loc[s.Scalar] = v
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
				loc[s.Var] = float64(j)
				if err := a.inspectStmts(env, s.Body, loc, collect); err != nil {
					return err
				}
			}
			delete(loc, s.Var)
		}
	}
	return nil
}

func (a *Analysis) inspectExpr(env *Env, e Expr, loc locals, collect func(int)) error {
	switch v := e.(type) {
	case Ref:
		if v.Name == a.Written {
			sub, err := env.evalInt(v.Sub, loc)
			if err != nil {
				return err
			}
			collect(sub)
		}
		return a.inspectExpr(env, v.Sub, loc, collect)
	case Bin:
		if err := a.inspectExpr(env, v.L, loc, collect); err != nil {
			return err
		}
		return a.inspectExpr(env, v.R, loc, collect)
	case Neg:
		return a.inspectExpr(env, v.X, loc, collect)
	}
	return nil
}

// ExecutorBody returns an executor loop body that interprets the original
// loop body for one outer iteration. Reads of the written array at later
// iterations are served from xold (captured at Body creation); reads of
// the current and earlier iterations come from the live array — the
// semantics of the transformed loop in paper Figure 4.
//
// The body's index i is the iteration's offset from the loop's lower
// bound, the numbering Inspect gives its dependences. The returned body
// allocates its scalar locals per invocation, so concurrent iterations do
// not share temporaries.
func (a *Analysis) ExecutorBody(env *Env) (executor.Body, error) {
	lo, _, err := a.Bounds(env)
	if err != nil {
		return nil, err
	}
	xold := append([]float64(nil), env.Float[a.Written]...)
	run := func(i int32) {
		iter := lo + int(i)
		loc := locals{a.Loop.Var: float64(iter)}
		// Errors inside the body indicate a mismatch between inspector and
		// executor and are programming errors; they panic.
		if err := a.execStmts(env, a.Loop.Body, loc, iter, xold); err != nil {
			panic(err)
		}
	}
	return run, nil
}

func (a *Analysis) execStmts(env *Env, stmts []Stmt, loc locals, iter int, xold []float64) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case Assign:
			v, err := a.execExpr(env, s.RHS, loc, iter, xold)
			if err != nil {
				return err
			}
			if s.Array != "" {
				sub, err := env.evalInt(s.Sub, loc)
				if err != nil {
					return err
				}
				env.Float[s.Array][sub] = v
			} else {
				loc[s.Scalar] = v
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
				loc[s.Var] = float64(j)
				if err := a.execStmts(env, s.Body, loc, iter, xold); err != nil {
					return err
				}
			}
			delete(loc, s.Var)
		}
	}
	return nil
}

// execExpr evaluates a value expression with the Figure 4 read rule for
// the written array.
func (a *Analysis) execExpr(env *Env, e Expr, loc locals, iter int, xold []float64) (float64, error) {
	switch v := e.(type) {
	case Ref:
		if v.Name == a.Written {
			sub, err := env.evalInt(v.Sub, loc)
			if err != nil {
				return 0, err
			}
			if sub < 0 || sub >= len(xold) {
				return 0, fmt.Errorf("transform: %s(%d) out of range", v.Name, sub)
			}
			// Figure 4 read rule: strictly-later iterations are served from
			// xold (they impose no ordering); the current iteration reads
			// its own live value (it may have partially updated it, as in
			// the Figure 8 triangular solve); earlier iterations read the
			// live array, which the executor has synchronized.
			if sub > iter {
				return xold[sub], nil
			}
			return env.Float[a.Written][sub], nil
		}
		return env.eval(v, loc, false)
	case Bin:
		l, err := a.execExpr(env, v.L, loc, iter, xold)
		if err != nil {
			return 0, err
		}
		r, err := a.execExpr(env, v.R, loc, iter, xold)
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
		x, err := a.execExpr(env, v.X, loc, iter, xold)
		return -x, err
	default:
		return env.eval(e, loc, false)
	}
}

// RunSequential interprets the loop with the original sequential
// semantics, for verification of the transformed execution. (The Figure 4
// xold convention is semantics-preserving for the sequential order, since
// reads at subscripts >= the current iteration see values not yet written
// in that sweep.)
func (a *Analysis) RunSequential(env *Env) error {
	lo, hi, err := a.Bounds(env)
	if err != nil {
		return err
	}
	x := env.Float[a.Written]
	xold := append([]float64(nil), x...)
	for i := lo; i <= hi; i++ {
		loc := locals{a.Loop.Var: float64(i)}
		if err := a.execStmts(env, a.Loop.Body, loc, i, xold); err != nil {
			return err
		}
	}
	return nil
}
