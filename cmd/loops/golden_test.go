package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from current experiment output")

// goldenExperiments are the experiments whose stdout is a pure function of
// the cost model: no wall-clock column, no host calibration. table1 and
// table5 print measured times next to simulated ones, so
// internal/tables pins only their simulated columns; timego and calibrate
// are measurements.
var goldenExperiments = []string{
	"summary", "fig9", "table2", "table3", "table4", "fig12", "fig13",
	"model", "numa", "gantt", "chunks",
}

// captureRun runs one experiment with os.Stdout redirected and returns
// what it printed.
func captureRun(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	b := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return b
}

// TestGoldenExperiments pins, byte for byte, what the deterministic
// experiments print at default flags: the paper's tables and figures as
// this repository reproduces them. Regenerate only for an intended change
// of a table, with
//
//	go test ./cmd/loops -run TestGoldenExperiments -update
func TestGoldenExperiments(t *testing.T) {
	for _, exp := range goldenExperiments {
		t.Run(exp, func(t *testing.T) {
			got := captureRun(t, exp)
			path := filepath.Join("testdata", exp+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("loops %s output changed.\n--- want\n%s--- got\n%s", exp, want, got)
			}
		})
	}
}
