package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doconsider/internal/tables"
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

// mustParse parses a command line as run does, starting nothing.
func mustParse(t *testing.T, args ...string) command {
	t.Helper()
	c, err := parse(args)
	if err != nil {
		t.Fatalf("parse(%v): %v", args, err)
	}
	return c
}

// TestServingFlagValidation pins the usage errors for serving-flag
// values that previously reached the server as undefined behavior:
// negative durations are not timeouts. Every command declares only the
// flags it reads, so a serving flag on a table experiment, a removed
// flag, or another command's flag is an undefined-flag error.
func TestServingFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-timeout", "-1s"},
		{"server", "-timeout", "-1ms"},
		{"loadgen", "-timeout", "-5s"},
		{"cluster", "-timeout", "-1s"},
		{"loadgen", "-wire", "grpc"},
		{"serve", "-wire", "grpc"},
		{"server", "-max-inflight", "-1"},
		{"serve", "-tenant-quota", "-2"},
		{"serve", "-replicas", "0"},
		{"cluster", "-kind", "bogus"},
		{"router", "-backends", "a:1", "-vnodes", "-1"},
		{"table2", "-procs", "0"},
		{"table2", "extra"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): accepted invalid serving flag", args)
		} else if !strings.Contains(err.Error(), "usage:") {
			t.Errorf("run(%v): error %q is not a usage error", args, err)
		}
	}
	for _, args := range [][]string{
		{"summary", "-timeout", "1s"},
		{"table2", "-wire", "json"},
		{"loadgen", "-kind", "pooled"},
		{"loadgen", "-cluster", "2"},
		{"router", "-procs", "2"},
		{"server", "-clients", "4"},
		{"serve", "-addr", ":8080"},
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
// edit at least one row. Only serve and loadgen declare them.
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
	if err := run([]string{"summary", "-drift-rate", "7"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("summary -drift-rate = %v, want an undefined-flag error", err)
	}
}

// TestAllSharesSimFlags checks that every simulated experiment, and
// all, declares the same flag family, so `loops all` can hand each the
// same values.
func TestAllSharesSimFlags(t *testing.T) {
	for name := range experiments {
		c := mustParse(t, name, "-procs", "4", "-iters", "7", "-large").(*simCmd)
		if c.simFlags != (simFlags{procs: 4, iters: 7, large: true}) {
			t.Errorf("%s parsed %+v", name, c.simFlags)
		}
	}
	if c := mustParse(t, "all").(*simCmd); c.procs != tables.DefaultProcs {
		t.Errorf("all: default -procs %d, want the paper's %d", c.procs, tables.DefaultProcs)
	}
}

// TestReadmeLoopsCommands parses every `go run ./cmd/loops ...` command
// line in README.md with that command's flag set, without running
// anything, so the documented commands cannot drift from the flags.
func TestReadmeLoopsCommands(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/loops "
	lines := strings.Split(string(data), "\n")
	n := 0
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(lines[i])
		}
		if j := strings.Index(line, "#"); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSuffix(strings.TrimSpace(line), "&")
		args := strings.Fields(strings.TrimPrefix(line, prefix))
		if _, err := parse(args); err != nil {
			t.Errorf("README.md:%d: loops %s: %v", i+1, strings.Join(args, " "), err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("README.md has no `go run ./cmd/loops` command lines")
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
