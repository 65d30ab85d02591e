package transform

import "testing"

func TestDeepNesting(t *testing.T) {
	src := `
doconsider i = 0, n-1
  do j = 0, 2
    do k = 0, 1
      x(i) = x(i) + w(j)*v(k)
    enddo
  enddo
enddo
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	if a.Written != "x" {
		t.Errorf("written = %q", a.Written)
	}
	env := NewEnv()
	n := 10
	env.Float["x"] = make([]float64, n)
	env.Float["w"] = []float64{1, 2, 3}
	env.Float["v"] = []float64{4, 5}
	env.Scalars["n"] = n
	if err := a.RunSequential(env); err != nil {
		t.Fatal(err)
	}
	// Each x(i) accumulates sum_j sum_k w(j)*v(k) = (1+2+3)*(4+5) = 54.
	for i := 0; i < n; i++ {
		if env.Float["x"][i] != 54 {
			t.Fatalf("x[%d] = %v, want 54", i, env.Float["x"][i])
		}
	}
}

func TestUnaryMinusAndDivision(t *testing.T) {
	src := `
doconsider i = 0, n-1
  x(i) = -x(i)/2 + 1
enddo
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Float["x"] = []float64{2, 4, 6}
	env.Scalars["n"] = 3
	if err := a.RunSequential(env); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, -1, -2}
	for i, v := range env.Float["x"] {
		if v != want[i] {
			t.Fatalf("x[%d] = %v, want %v", i, v, want[i])
		}
	}
}
