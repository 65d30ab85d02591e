package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runSet is one complete pass over the workloads, with the conditions it
// ran under; a result file is a list of them, appended to by -out.
type runSet struct {
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	NProc     int          `json:"nproc"`
	GoVersion string       `json:"go_version"`
	Commit    string       `json:"commit"`
	When      string       `json:"when"`
	Runs      []*runResult `json:"runs"`
}

type resultFile struct {
	Sets []*runSet `json:"sets"`
}

func newRunSet(seed int64, seconds float64) *runSet {
	return &runSet{
		Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), When: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the checkout when it is a git repository; the driver's
// checkouts are not.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		c += "+uncommitted"
	}
	return c
}

func readResultFile(path string) (*resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &rf, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func appendRunSet(path string, set *runSet) error {
	rf, err := readResultFile(path)
	if err != nil {
		return err
	}
	rf.Sets = append(rf.Sets, set)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadRunSet reads "file.json" (its first set) or "file.json#2".
func loadRunSet(arg string) (*runSet, error) {
	path, idx := arg, 0
	if i := strings.LastIndexByte(arg, '#'); i >= 0 {
		n, err := strconv.Atoi(arg[i+1:])
		if err != nil {
			return nil, fmt.Errorf("%s: bad set index: %w", arg, err)
		}
		path, idx = arg[:i], n
	}
	rf, err := readResultFile(path)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(rf.Sets) {
		return nil, fmt.Errorf("%s holds %d run sets, no #%d", path, len(rf.Sets), idx)
	}
	return rf.Sets[idx], nil
}

func (s *runSet) find(workload string, traced bool) *runResult {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// report prints one run for a person: every metric by name with its
// unit, spread and sample count.
func report(w io.Writer, r *runResult) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): seed %d, %g s, %d client(s), %d procs, %d ops/segment, requests %s\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Clients, r.Procs, r.SegOps, r.Digest)
	fmt.Fprintf(w, "   ops: %d attempted, %d ok, %d refused, %d failed; fail_frac %g\n",
		r.Attempted, r.OK, r.Refused, r.Failed, r.FailFrac)
	if r.Error != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.Error)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	specs := endToEnd
	if r.Traced {
		specs = append([]metricSpec(nil), perLayer...)
		sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	}
	for _, m := range specs {
		name, v := m.Name, r.Metrics[m.Name]
		line := fmt.Sprintf("   %-42s %14.4f %-6s", name, v.Value, v.Unit)
		switch {
		case !r.Traced:
			line += fmt.Sprintf(" spread %5.1f%%  n=%d", 100*v.Spread, v.Samples)
		case v.Samples == 0:
			line += " n/a on this workload"
		default:
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Fprintln(w, line)
	}
	if !r.Traced {
		return
	}
	if _, serving := servingConfigs[r.Workload]; serving {
		total, un := r.Metrics["server.total_ms"].Value, r.Metrics["client.unattributed_ms"].Value
		fmt.Fprintf(w, "   ledger: caller mean %.4f ms = sum of server.stage.* %.4f + client.unattributed_ms %.4f\n", total+un, total, un)
	}
	fmt.Fprintf(w, "   ledger: %s\n", r.Ledger)
}
