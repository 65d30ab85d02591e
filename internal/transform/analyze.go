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

// Analyze performs the compile-time half of the transformation in one
// walk over the loop body: it finds the written array, classifies the
// reads of it, collects the arrays that carry subscripts, and verifies
// the loop fits the start-time-schedulable form the paper's system
// handles. There is a single written array, subscripted by the loop
// variable, which the body never rebinds; and no value read from the
// written array reaches an integer context — a subscript or an
// inner-loop bound — directly or through a scalar temporary assigned
// from such a read. The inspector could not know those dependences
// before the loop runs.
func Analyze(loop *Loop) (*Analysis, error) {
	w := &analyzer{a: &Analysis{Loop: loop}, flows: map[string][]value{}, intArray: map[string]bool{}}
	if err := w.stmts(loop.Body); err != nil {
		return nil, err
	}
	a := w.a
	if a.Written == "" {
		return nil, fmt.Errorf("transform: loop writes no array; nothing to parallelize")
	}
	for _, r := range w.reads {
		if r.Name != a.Written {
			continue
		}
		if iv, ok := r.Sub.(Ident); ok && iv.Name == loop.Var {
			a.SelfReads++
		} else {
			a.IndirectReads++
		}
	}
	seen := map[string]bool{}
	for _, v := range w.sinks {
		if w.carries(v, a.Written, seen) {
			return nil, fmt.Errorf("transform: a value read from %s reaches a subscript or an inner-loop bound; the loop is not start-time schedulable",
				a.Written)
		}
	}
	return a, nil
}

// value names where a value comes from: a read of an array, or a scalar.
type value struct {
	name  string
	array bool
}

// analyzer is Analyze's walk. The written array may be read before the
// body assigns it, so the walk records every read and every flow of a
// value, and Analyze resolves them once the written array is known.
type analyzer struct {
	a        *Analysis
	reads    []Ref              // every array read, in body order
	flows    map[string][]value // scalar -> the values its assignments carry
	sinks    []value            // values that reach an integer context
	intArray map[string]bool    // a.IntArrays as a set
}

func (w *analyzer) stmts(stmts []Stmt) error {
	loopVar := w.a.Loop.Var
	for _, st := range stmts {
		switch s := st.(type) {
		case Assign:
			if s.Scalar == loopVar {
				return fmt.Errorf("transform: assignment to loop variable %s", loopVar)
			}
			var carried []value
			w.expr(s.RHS, &carried)
			if s.Array == "" {
				w.flows[s.Scalar] = append(w.flows[s.Scalar], carried...)
				continue
			}
			iv, ok := s.Sub.(Ident)
			if !ok || iv.Name != loopVar {
				return fmt.Errorf("transform: write to %s(%s) not subscripted by loop variable %s",
					s.Array, s.Sub.exprString(), loopVar)
			}
			if w.a.Written != "" && w.a.Written != s.Array {
				return fmt.Errorf("transform: loop writes both %s and %s; one written array supported",
					w.a.Written, s.Array)
			}
			w.a.Written = s.Array
		case InnerLoop:
			if s.Var == loopVar {
				return fmt.Errorf("transform: inner loop reuses loop variable %s", loopVar)
			}
			w.expr(s.Lo, &w.sinks)
			w.expr(s.Hi, &w.sinks)
			if err := w.stmts(s.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// expr walks e, whose value flows into *into: the sinks when e is in an
// integer context, a scalar's flows when e is assigned to one. A read's
// subscript is an integer context.
func (w *analyzer) expr(e Expr, into *[]value) {
	switch v := e.(type) {
	case Ident:
		*into = append(*into, value{name: v.Name})
	case Ref:
		w.reads = append(w.reads, v)
		if into == &w.sinks && !w.intArray[v.Name] {
			w.intArray[v.Name] = true
			w.a.IntArrays = append(w.a.IntArrays, v.Name)
		}
		*into = append(*into, value{name: v.Name, array: true})
		w.expr(v.Sub, &w.sinks)
	case Bin:
		w.expr(v.L, into)
		w.expr(v.R, into)
	case Neg:
		w.expr(v.X, into)
	}
}

// carries reports whether v comes from a read of array x, following a
// scalar through every assignment to it; seen holds the scalars already
// followed.
func (w *analyzer) carries(v value, x string, seen map[string]bool) bool {
	if v.array {
		return v.name == x
	}
	if seen[v.name] {
		return false
	}
	seen[v.name] = true
	for _, f := range w.flows[v.name] {
		if w.carries(f, x, seen) {
			return true
		}
	}
	return false
}
