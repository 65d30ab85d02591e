package transform

import (
	"fmt"
)

// Analysis is the compile-time result of examining a doconsider loop: the
// array the loop writes (carrying the cross-iteration dependences) and the
// reads of that array whose subscripts must be evaluated at run time.
type Analysis struct {
	Loop    *Loop
	Written string // the array written at subscript <loop var>
	// SelfReads counts reads of the written array whose subscript is
	// syntactically the loop variable (no ordering constraint).
	SelfReads int
	// IndirectReads counts reads of the written array with any other
	// subscript; these are the references the inspector must resolve.
	IndirectReads int
	// IntArrays lists arrays used inside subscripts or inner-loop bounds —
	// the data structures that carry the dependence information (the
	// paper's ia / ija).
	IntArrays []string
}

// Analyze performs the compile-time half of the transformation: it
// determines the written array, classifies the reads of that array, and
// verifies the loop fits the start-time-schedulable form the paper's
// system handles (a single written array, subscripted by the loop
// variable, which the body never rebinds).
func Analyze(loop *Loop) (*Analysis, error) {
	a := &Analysis{Loop: loop}

	var findWrite func(stmts []Stmt) error
	findWrite = func(stmts []Stmt) error {
		for _, st := range stmts {
			switch s := st.(type) {
			case Assign:
				if s.Scalar == loop.Var {
					return fmt.Errorf("transform: assignment to loop variable %s", loop.Var)
				}
				if s.Array == "" {
					continue
				}
				iv, ok := s.Sub.(Ident)
				if !ok || iv.Name != loop.Var {
					return fmt.Errorf("transform: write to %s(%s) not subscripted by loop variable %s",
						s.Array, s.Sub.exprString(), loop.Var)
				}
				if a.Written != "" && a.Written != s.Array {
					return fmt.Errorf("transform: loop writes both %s and %s; one written array supported",
						a.Written, s.Array)
				}
				a.Written = s.Array
			case InnerLoop:
				if s.Var == loop.Var {
					return fmt.Errorf("transform: inner loop reuses loop variable %s", loop.Var)
				}
				if err := findWrite(s.Body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := findWrite(loop.Body); err != nil {
		return nil, err
	}
	if a.Written == "" {
		return nil, fmt.Errorf("transform: loop writes no array; nothing to parallelize")
	}

	// Collect integer-context arrays from an expression tree.
	seenInt := map[string]bool{}
	var intCtx func(e Expr)
	intCtx = func(e Expr) {
		switch v := e.(type) {
		case Ref:
			if !seenInt[v.Name] {
				seenInt[v.Name] = true
				a.IntArrays = append(a.IntArrays, v.Name)
			}
			intCtx(v.Sub)
		case Bin:
			intCtx(v.L)
			intCtx(v.R)
		case Neg:
			intCtx(v.X)
		}
	}
	// Classify reads of the written array in a value expression; its
	// subscripts are integer context.
	var classify func(e Expr)
	classify = func(e Expr) {
		switch v := e.(type) {
		case Ref:
			if v.Name == a.Written {
				if iv, ok := v.Sub.(Ident); ok && iv.Name == loop.Var {
					a.SelfReads++
				} else {
					a.IndirectReads++
				}
			}
			intCtx(v.Sub)
			classify(v.Sub)
		case Bin:
			classify(v.L)
			classify(v.R)
		case Neg:
			classify(v.X)
		}
	}
	var classifyStmts func(stmts []Stmt)
	classifyStmts = func(stmts []Stmt) {
		for _, st := range stmts {
			switch s := st.(type) {
			case Assign:
				classify(s.RHS)
			case InnerLoop:
				intCtx(s.Lo)
				intCtx(s.Hi)
				classifyStmts(s.Body)
			}
		}
	}
	classifyStmts(loop.Body)
	return a, nil
}
