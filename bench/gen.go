package main

import (
	"fmt"
	"math"
	"math/rand"

	"doconsider/internal/ilu"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/synthetic"
	"doconsider/internal/trisolve"
)

// Input generation. Everything here runs during set-up: the timed loops
// only index into what it produced.

// stencilFactor returns the ILU(0) lower factor of a named paper
// problem. internal/problems builds the same factors but memoizes them
// process-wide, which would make every set-up after the first free.
func stencilFactor(name string) (*sparse.CSR, error) {
	var a *sparse.CSR
	switch name {
	case "SPE2":
		a = stencil.SPE2()
	case "SPE5":
		a = stencil.SPE5()
	case "5-PT":
		a = stencil.FivePoint(63)
	case "9-PT":
		a = stencil.NinePoint(63)
	case "7-PT":
		a = stencil.SevenPoint(20)
	case "L5-PT":
		a = stencil.FivePoint(200)
	case "L7-PT":
		a = stencil.SevenPoint(30)
	case "L9-PT":
		a = stencil.NinePoint(127)
	default:
		return nil, fmt.Errorf("bench: unknown problem %q", name)
	}
	pat, err := ilu.Symbolic(a, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: %s symbolic: %w", name, err)
	}
	fact, err := ilu.NumericSeq(a, pat)
	if err != nil {
		return nil, fmt.Errorf("bench: %s numeric: %w", name, err)
	}
	return fact.L(), nil
}

func stencilFactors(names []string) ([]*sparse.CSR, error) {
	out := make([]*sparse.CSR, len(names))
	for i, name := range names {
		l, err := stencilFactor(name)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// syntheticFactor generates the structure of the paper's "65-4-3"
// workload for a seed, with the diagonal set to 1. The generator's own
// diagonals are not 1, and on such a factor every planned solve differs
// from trisolve.ForwardSeq in the last bit of about a third of the rows
// (the executors multiply by a reciprocal where ForwardSeq divides; see
// README.md, "Findings"). The workload prices the inspector, which reads
// only the structure, so it keeps ForwardSeq as its oracle this way.
func syntheticFactor(seed int64) (*sparse.CSR, error) {
	cfg, err := synthetic.Parse("65-4-3", seed)
	if err != nil {
		return nil, err
	}
	l := synthetic.Generate(cfg)
	for i := 0; i < l.N; i++ {
		cols, vals := l.Row(i)
		for k, c := range cols {
			if int(c) == i {
				vals[k] = 1
			}
		}
	}
	return l, nil
}

// rhsPool is one block of random numbers every right-hand side is a
// window of, so drawing a RHS in the timed loop is a slice expression.
type rhsPool struct{ data []float64 }

const rhsWindows = 1 << 12

func newRHSPool(rng *rand.Rand, maxN int) *rhsPool {
	p := &rhsPool{data: make([]float64, maxN+rhsWindows)}
	for i := range p.data {
		p.data[i] = rng.Float64()
	}
	return p
}

func (p *rhsPool) window(off int32, n int) []float64 { return p.data[off : int(off)+n] }

// batch fills dst with the windows at offs.
func (p *rhsPool) batch(dst [][]float64, offs []int32, n int) [][]float64 {
	dst = dst[:0]
	for _, off := range offs {
		dst = append(dst, p.window(off, n))
	}
	return dst
}

func drawOffsets(rng *rand.Rand, k int) []int32 {
	offs := make([]int32, k)
	for i := range offs {
		offs[i] = int32(rng.Intn(rhsWindows))
	}
	return offs
}

// mixBlock is the stretch of ops over which every traffic mix is exact:
// each block of mixBlock ops holds every factor equally often and exactly
// its share of drift requests, shuffled inside the block. Any segment is
// then the same mix for every seed; only the order changes.
const mixBlock = 20

// blockShuffle shuffles vals inside consecutive blocks of mixBlock.
func blockShuffle[T any](rng *rand.Rand, vals []T) {
	for lo := 0; lo < len(vals); lo += mixBlock {
		blk := vals[lo:min(lo+mixBlock, len(vals))]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
}

// oracle checks solutions against the sequential loop, bit for bit.
type oracle struct {
	x []float64
	// corrupt, when set, damages a solution before it is checked; the
	// test suite uses it to prove the oracle is live.
	corrupt func(xs [][]float64)
}

func (o *oracle) verify(l *sparse.CSR, xs, bs [][]float64) error {
	if len(xs) != len(bs) {
		return fmt.Errorf("%d solutions for %d right-hand sides", len(xs), len(bs))
	}
	if o.corrupt != nil {
		o.corrupt(xs)
	}
	if cap(o.x) < l.N {
		o.x = make([]float64, l.N)
	}
	want := o.x[:l.N]
	for j := range bs {
		if len(xs[j]) != l.N {
			return fmt.Errorf("solution %d has length %d, want %d", j, len(xs[j]), l.N)
		}
		if err := trisolve.ForwardSeq(l, want, bs[j]); err != nil {
			return err
		}
		for i, w := range want {
			if math.Float64bits(w) != math.Float64bits(xs[j][i]) {
				return fmt.Errorf("solution %d row %d: got %x want %x", j, i,
					math.Float64bits(xs[j][i]), math.Float64bits(w))
			}
		}
	}
	return nil
}

// digest folds a request sequence into 64 bits (FNV-1a over words) so
// two runs of one seed can be shown to have sent the same requests.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		d.h = (d.h ^ uint64(v)) * 1099511628211
	}
}

func (d *digest) addEdits(edits []sparse.RowEdit) {
	for _, e := range edits {
		d.add(int64(e.Row), int64(len(e.Insert)), int64(len(e.Delete)))
		for _, in := range e.Insert {
			d.add(int64(in.Col), int64(math.Float64bits(in.Val)))
		}
		for _, c := range e.Delete {
			d.add(int64(c))
		}
	}
}

func (d *digest) addOffsets(offs []int32) {
	for _, o := range offs {
		d.add(int64(o))
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// editedRows lists the rows a set of edits touches, the drift hint the
// plan cache takes.
func editedRows(edits []sparse.RowEdit) []int32 {
	rows := make([]int32, len(edits))
	for i, e := range edits {
		rows[i] = e.Row
	}
	return rows
}
