// Package transform implements the paper's Section 2.2: the rules by which
// a sequential loop annotated with doconsider is turned into its run-time
// parallelized form, an inspector plus an executor. The paper states them
// as a source-to-source transformation; this package applies them by
// interpretation, so the transformed loop runs without generating code.
//
// The input language is a small Fortran-flavoured loop DSL:
//
//	doconsider i = 0, n-1
//	  x(i) = x(i) + b(i)*x(ia(i))
//	enddo
//
// or, with an inner loop over a sparse-row pointer structure (the paper's
// Figure 6 / Figure 8 triangular solve):
//
//	doconsider i = 0, n-1
//	  y(i) = rhs(i)
//	  do j = ija(i), ija(i+1)-1
//	    y(i) = y(i) - a(j)*y(ija(j))
//	  enddo
//	enddo
//
// Analyze accepts only loops that are start-time schedulable: one written
// array, assigned at the loop variable, and no value read from it reaches
// an integer context — a subscript or an inner-loop bound — directly or
// through a scalar temporary. Every dependence is then a function of data
// bound before the loop starts, which the inspector can evaluate.
//
// From the parsed loop the package derives an inspector (which enumerates,
// for each outer iteration, the iterations it depends on) and an executor
// body (safe for concurrent iterations, with the paper's Figure 4 read
// rule). Both, and RunSequential, the loop's original semantics, are one
// statement walker and one expression evaluator over the loop body; the
// three routes differ only in how a read of the written array is served
// (the inspector records a dependence, the others apply Figure 4's rule)
// and in whether an array assignment is stored. The inspector's
// dependences feed core.New, whose runtime runs the executor body under
// either of the paper's disciplines (Figures 4 and 5), and the transformed
// run must match RunSequential bit for bit.
package transform

import "fmt"

// Expr is an expression node.
type Expr interface{ exprString() string }

// Num is a numeric literal (integer-valued; the DSL's subscript arithmetic
// is integral and its data arithmetic promotes to float64).
type Num struct{ Val float64 }

// Ident is a scalar variable reference (loop variables and locals).
type Ident struct{ Name string }

// Ref is an array reference name(sub).
type Ref struct {
	Name string
	Sub  Expr
}

// Bin is a binary operation.
type Bin struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

// Neg is unary minus.
type Neg struct{ X Expr }

func (n Num) exprString() string   { return fmt.Sprintf("%g", n.Val) }
func (i Ident) exprString() string { return i.Name }
func (r Ref) exprString() string   { return r.Name + "(" + r.Sub.exprString() + ")" }
func (b Bin) exprString() string {
	return "(" + b.L.exprString() + string(b.Op) + b.R.exprString() + ")"
}
func (n Neg) exprString() string { return "(-" + n.X.exprString() + ")" }

// Stmt is a statement in the loop body.
type Stmt interface{ stmt() }

// Assign is "target = expr" where target is an array ref or a scalar.
type Assign struct {
	Array  string // empty for scalar assignment
	Sub    Expr   // nil for scalar assignment
	Scalar string // set for scalar assignment
	RHS    Expr
}

func (Assign) stmt() {}

// InnerLoop is a nested sequential "do" loop with inclusive bounds.
type InnerLoop struct {
	Var    string
	Lo, Hi Expr
	Body   []Stmt
}

func (InnerLoop) stmt() {}

// Loop is a parsed doconsider loop with inclusive bounds.
type Loop struct {
	Var    string
	Lo, Hi Expr
	Body   []Stmt
}

// String renders the loop header.
func (l *Loop) String() string {
	return "doconsider " + l.Var + " = " + l.Lo.exprString() + ", " + l.Hi.exprString()
}
