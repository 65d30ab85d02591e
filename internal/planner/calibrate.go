package planner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// calibFileVersion guards the persisted calibration schema: bumping it
// invalidates stale files so a model change recalibrates instead of
// misreading old constants (version 2 added Parallelism; version 3 added
// the repair-vs-rebuild pricing constants; version 4 added the fused
// per-row discount TRowFused). The repair constants were later replaced
// by the fixed bound delta.RepairBound without a bump: Load ignores
// unknown keys, so a version-4 file that still carries them keeps its
// calibration.
const calibFileVersion = 4

// calibFile is the on-disk calibration record.
type calibFile struct {
	Version    int       `json:"version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Model      CostModel `json:"model"`
}

// Calibrate measures the host's planner cost constants with one-shot
// microbenchmarks: the dependent multiply-add chain (TDep), indirect
// loop-body dispatch (TRow), shared ready-array checks (TCheck),
// yield-and-recheck spin rounds (TSpin), and the fixed cost of waking a
// pooled worker set for an empty pass (TPass). The whole run is bounded
// to a few tens of milliseconds; it is meant to run once per machine and
// be persisted (see ForHost).
//
// Measurements on a loaded machine wobble, so consumers should rely on
// coarse ordering only; the selection thresholds the constants feed are
// order-of-magnitude decisions.
func Calibrate() *CostModel {
	m := Default()
	m.Calibrated = true
	m.Parallelism = runtime.GOMAXPROCS(0)
	const iters = 1 << 16

	// TDep: dependent multiply-add chain, one flop pair per iteration.
	x := 1.0
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x = x*0.999999 + 1e-9
	}
	if d := time.Since(t0).Seconds() / iters; d > 0 {
		m.TDep = d
	}
	sink = x

	// TRow: indirect call through a stored closure — the per-index body
	// dispatch every executor pays.
	body := bodySink
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		body(int32(i))
	}
	if d := time.Since(t0).Seconds() / iters; d > 0 {
		m.TRow = d
	}

	// TCheck: shared ready-array check (atomic load + compare).
	var flag int32 = 1
	acc := int32(0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if atomic.LoadInt32(&flag) == 1 {
			acc++
		}
	}
	if d := time.Since(t0).Seconds() / iters; d > 0 {
		m.TCheck = d
	}
	sinkI = acc

	// TSpin: one not-ready round — check plus a scheduler yield.
	const spinIters = 1 << 12
	t0 = time.Now()
	for i := 0; i < spinIters; i++ {
		if atomic.LoadInt32(&flag) != 0 {
			runtime.Gosched()
		}
	}
	if d := time.Since(t0).Seconds() / spinIters; d > 0 {
		m.TSpin = d
	}

	// TPass: wake-and-retire cost of a pooled pass with next to no work.
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 2
	}
	wf := make([]int32, procs)
	s := schedule.Global(wf, procs)
	deps := wavefront.FromAdjacency(make([][]int32, procs))
	pooled := executor.New(executor.Pooled)
	noop := func(int32) {}
	if _, err := pooled.Run(context.Background(), s, deps, noop); err == nil {
		const passes = 64
		t0 = time.Now()
		for i := 0; i < passes; i++ {
			_, _ = pooled.Run(context.Background(), s, deps, noop)
		}
		if d := time.Since(t0).Seconds() / passes; d > 0 {
			m.TPass = d
		}
	}

	if err := m.Validate(); err != nil {
		// Timer too coarse or the host too hostile: fall back whole-hog
		// rather than mixing measured and default constants arbitrarily.
		return Default()
	}
	return m
}

// sinks keep the calibration loops from being optimized away.
var (
	sink     float64
	sinkI    int32
	bodySink = func(i int32) { sinkI += i }
)

// Save persists the model to path (creating parent directories).
func Save(path string, m *CostModel) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(calibFile{
		Version:    calibFileVersion,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Model:      *m,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a persisted model, rejecting version mismatches and
// constants that fail Validate.
func Load(path string) (*CostModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cf calibFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("planner: %s: %w", path, err)
	}
	if cf.Version != calibFileVersion {
		return nil, fmt.Errorf("planner: %s has calibration version %d, want %d", path, cf.Version, calibFileVersion)
	}
	m := cf.Model
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// DefaultPath returns where ForHost persists the host calibration: the
// user cache directory when available, the system temp directory
// otherwise.
func DefaultPath() string {
	base, err := os.UserCacheDir()
	if err != nil {
		base = os.TempDir()
	}
	return filepath.Join(base, "doconsider", "calibration.json")
}

var (
	hostOnce  sync.Once
	hostModel *CostModel
)

// ForHost returns the process-wide host cost model, resolving it once:
//
//   - Inside a test binary the canonical Default constants are used and
//     nothing touches the filesystem: microbenchmarks run under `go
//     test -race` are skewed several-fold by instrumentation, and
//     persisting those constants would poison the machine's real
//     calibration for every later production run. Tests that want a
//     measured model call Calibrate directly.
//   - DOCONSIDER_CALIBRATION=off (or "default") skips calibration and
//     uses the canonical Default constants — the right setting for
//     reproducible CI runs.
//   - DOCONSIDER_CALIBRATION=<path> relocates the persisted file.
//   - Otherwise the model is loaded from DefaultPath, or measured once
//     with Calibrate and persisted there (best-effort: an unwritable
//     cache directory costs recalibration next process, not an error).
func ForHost() *CostModel {
	hostOnce.Do(func() {
		if testing.Testing() {
			hostModel = Default()
			return
		}
		path := os.Getenv("DOCONSIDER_CALIBRATION")
		switch path {
		case "off", "default":
			hostModel = Default()
			return
		case "":
			path = DefaultPath()
		}
		if m, err := Load(path); err == nil {
			hostModel = m
			return
		}
		hostModel = Calibrate()
		_ = Save(path, hostModel)
	})
	return hostModel
}
