package tables

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doconsider/internal/problems"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables15.golden from current driver output")

// TestGoldenTables1And5 pins the simulated columns of Table 1 and Table 5
// at the paper's 16 processors, as exact float bits, over the problem sets
// `loops table1` and `loops table5` print. The wall-clock columns
// (SortWall, and Table 5's measured solve, sort and schedule times) are
// measurements and are not pinned. Regenerate only for an intended change
// of the model, with
//
//	go test ./internal/tables -run TestGoldenTables1And5 -update
func TestGoldenTables1And5(t *testing.T) {
	var sb strings.Builder
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	rows1, err := Table1(problems.Names(), DefaultProcs, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows1 {
		fmt.Fprintf(&sb, "table1 %s iters=%d self=%s selfeff=%s pre=%s preeff=%s\n",
			r.Problem, r.Iterations, bits(r.SelfTime), bits(r.SelfEff), bits(r.PreTime), bits(r.PreEff))
	}
	rows5, err := Table5(append([]string{"SPE2", "SPE5", "5-PT", "9-PT"}, problems.SyntheticNames()...), DefaultProcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows5 {
		fmt.Fprintf(&sb, "table5 %s global=%s local=%s\n", r.Problem, bits(r.GlobalRun), bits(r.LocalRun))
	}
	got := sb.String()

	path := filepath.Join("testdata", "tables15.golden")
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
		t.Errorf("Table 1/5 simulated columns changed.\n--- want\n%s--- got\n%s", want, got)
	}
}
