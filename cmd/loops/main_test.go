package main

import (
	"strings"
	"testing"
)

func TestRunCheapExperiments(t *testing.T) {
	for _, args := range [][]string{
		{"summary"},
		{"fig9"},
		{"model", "-procs", "4"},
		{"fig13", "-procs", "4"},
		{"fig12", "-procs", "4"},
		{"timego", "-procs", "4"},
		{"numa", "-procs", "4"},
		{"gantt", "-procs", "4"},
		{"chunks", "-procs", "4"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunTables(t *testing.T) {
	if testing.Short() {
		t.Skip("tables are slow in -short mode")
	}
	for _, args := range [][]string{
		{"table2", "-procs", "8"},
		{"table3", "-procs", "8"},
		{"table4", "-procs", "8"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("accepted empty args")
	}
	if err := run([]string{"nonsense"}); err == nil {
		t.Error("accepted unknown experiment")
	}
	if err := run([]string{"table1", "-bogus"}); err == nil {
		t.Error("accepted unknown flag")
	}
}

// TestServingFlagValidation pins the usage errors for serving-flag
// values that previously reached the server as undefined behavior:
// negative durations are not timeouts. Table experiments ignore the
// serving flags entirely, so they must keep accepting them. The
// coalescer's flags are gone, and passing one is an error.
func TestServingFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-timeout", "-1s"},
		{"server", "-timeout", "-1ms"},
		{"loadgen", "-timeout", "-5s"},
		{"cluster", "-timeout", "-1s"},
		{"loadgen", "-wire", "grpc"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): accepted invalid serving flag", args)
		} else if !strings.Contains(err.Error(), "usage:") {
			t.Errorf("run(%v): error %q is not a usage error", args, err)
		}
	}
	// Sanity: the same values are fine for experiments that ignore them.
	if err := run([]string{"summary", "-timeout", "-1s"}); err != nil {
		t.Errorf("summary rejected irrelevant serving flags: %v", err)
	}
	for _, args := range [][]string{
		{"serve", "-coalesce-window", "1ms"},
		{"server", "-coalesce-width", "8"},
		{"cluster", "-latency-window", "1ms"},
		{"serve", "-compare=false"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v) = %v, want an undefined-flag error", args, err)
		}
	}
}

// TestDriftFlagValidation pins the usage errors for the drifting
// workload knobs: a drift rate is a probability and a drift step must
// edit at least one row.
func TestDriftFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-drift-rate", "-0.1"},
		{"serve", "-drift-rate", "1.5"},
		{"loadgen", "-drift-rate", "2"},
		{"serve", "-drift-rate", "0.5", "-drift-edits", "0"},
		{"loadgen", "-drift-rate", "0.5", "-drift-edits", "-2"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): accepted invalid drift flag", args)
		} else if !strings.Contains(err.Error(), "usage:") {
			t.Errorf("run(%v): error %q is not a usage error", args, err)
		}
	}
	if err := run([]string{"summary", "-drift-rate", "7"}); err != nil {
		t.Errorf("summary rejected irrelevant drift flags: %v", err)
	}
}

func TestParseTenantWeights(t *testing.T) {
	got, err := parseTenantWeights("acme=3, beta=1")
	if err != nil || got["acme"] != 3 || got["beta"] != 1 || len(got) != 2 {
		t.Fatalf("parseTenantWeights = %v, %v", got, err)
	}
	if got, err := parseTenantWeights(""); err != nil || got != nil {
		t.Fatalf("empty weights = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"acme", "=3", "acme=zero", "acme=0", "acme=-1"} {
		if _, err := parseTenantWeights(bad); err == nil {
			t.Errorf("accepted malformed -tenant-weights %q", bad)
		}
	}
}
