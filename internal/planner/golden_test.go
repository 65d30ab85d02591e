package planner_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/decisions.golden from current planner output")

// goldenProcs fixes the processor count the decision table is computed
// at; 4 matches the serving default.
const goldenProcs = 4

// TestGoldenDecisions pins the planner's (features → strategy[+fused])
// mapping over the full problem suite under the canonical Default cost
// model, so a cost-model change produces a reviewable diff of decision
// flips instead of a silent behavioral change. It also pins that a nil
// model decides exactly as Default does on every row. Regenerate with
//
//	go test ./internal/planner -run TestGoldenDecisions -update
func TestGoldenDecisions(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# planner decisions over the problem suite\n")
	fmt.Fprintf(&sb, "# model=default procs=%d; columns: problem features -> strategy[+fused]\n", goldenProcs)
	for _, name := range problems.AllNames() {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := planner.Analyze(p.Deps, p.Wf, goldenProcs)
		// Price the fifth (supernodal) candidate the way trisolve's
		// adaptive path does: detect the partition, compress the DAG,
		// and hand the planner the unit-level shape.
		part := supernode.Detect(p.Deps, supernode.Config{})
		unitDeps := part.Compress(p.Deps)
		unitWf, err := wavefront.Compute(unitDeps)
		if err != nil {
			t.Fatalf("%s: compressed levels: %v", name, err)
		}
		st := part.Stats()
		fu := &planner.Fusion{
			Nodes:     st.Nodes,
			FusedRows: st.FusedRows,
			MaxWidth:  st.MaxWidth,
			UnitEdges: unitDeps.Edges(),
		}
		for _, w := range wavefront.Histogram(unitWf) {
			fu.UnitLevels++
			fu.UnitLevelSum += (w + goldenProcs - 1) / goldenProcs
		}
		f.Fusion = fu
		d := planner.Select(f, planner.Default())
		if nilModel := planner.Select(f, nil); nilModel != d {
			t.Errorf("%s: Select(f, nil) = %v, Select(f, Default()) = %v", name, nilModel, d)
		}
		strat := fmt.Sprint(d.Strategy)
		if d.Fused {
			strat += "+fused"
		}
		fmt.Fprintf(&sb,
			"%-10s n=%-6d edges=%-6d levels=%-4d maxw=%-4d levelsum=%-6d natsteps=%-6d nodes=%-6d fusedrows=%-6d -> %s\n",
			name, f.N, f.Edges, f.Levels, f.MaxWidth, f.LevelSum, f.NatSteps,
			fu.Nodes, fu.FusedRows, strat)
	}
	got := sb.String()

	path := filepath.Join("testdata", "decisions.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("planner decisions changed; review and regenerate with -update.\n--- want\n%s--- got\n%s", want, got)
	}
}
