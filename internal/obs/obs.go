// Package obs is the request-scoped observability layer: a
// zero-allocation span recorder stamped as a request flows through the
// serving pipeline (admission → decode → factor resolution → plan
// cache → delta repair → executor → encode), a lock-free ring
// the completed traces land in, per-wavefront-level execution clocks
// sampled at a configurable rate, and the pprof/runtime debug handler
// the CLI mounts on a separate listener.
//
// The design constraint is the serving tier's warm binary path: the
// whole record-stamp-publish cycle must perform no heap allocations, so
// a Trace is a fixed-size, pointer-free struct (pooled alongside the
// request arena by the server), the strategy name is an inline byte
// array, and level timings accumulate into a fixed array of atomics.
// Readers copy traces out of the ring by value; only the HTTP rendering
// layer ever turns them into heap-allocated JSON.
package obs

import "time"

// Stage indexes the pipeline segments a trace attributes latency to.
// Every nanosecond between Begin and Finish lands in exactly one stage
// (Lap and AttributeSubmit partition the timeline), so the per-stage
// durations of a finished trace sum to its total by construction —
// /metrics, /v1/stats and /v1/trace can never disagree.
type Stage uint8

const (
	// StageAdmission covers the method/drain/in-flight checks.
	StageAdmission Stage = iota
	// StageDecode covers wire decode and right-hand-side validation.
	StageDecode
	// StageFactor covers factor resolution: the by-fingerprint factor
	// cache, inline validation and registration, or drift
	// materialization.
	StageFactor
	// StagePlan covers the plan-cache lookup and, on a miss, the
	// inspector run and planner pricing (minus any repair time).
	StagePlan
	// StageRepair is the delta-repair portion of a plan-cache miss.
	StageRepair
	// StageExecute is the executor pass itself.
	StageExecute
	// StageEncode covers response framing and serialization.
	StageEncode

	// NumStages is the stage count; Trace.Stages is indexed by Stage.
	NumStages = int(StageEncode) + 1
)

var stageNames = [NumStages]string{
	"admission", "decode", "factor",
	"plan", "repair", "execute", "encode",
}

// String returns the stable metric-label name of the stage.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Wire identifies the wire format a traced request arrived on.
type Wire uint8

const (
	WireJSON Wire = iota
	WireBinary
)

// String returns the stable metric-label name of the wire.
func (w Wire) String() string {
	if w == WireBinary {
		return "binary"
	}
	return "json"
}

// MaxLevels bounds the per-wavefront-level timing array carried by a
// sampled trace. Levels beyond the bound accumulate into the last
// bucket; NumLevels still reports the true level count.
const MaxLevels = 48

// StrategyLen bounds the inline executor-strategy name (matches the
// binary wire format's strategy reserve).
const StrategyLen = 24

// TenantLen bounds the inline tenant name carried by a trace. Wire
// tenant names may be longer (up to the server's limit); the trace
// keeps a truncated copy — enough to attribute, still pointer-free.
const TenantLen = 24

// Trace is one request's span record. It is fixed-size and
// pointer-free so the server can pool it with the request scratch and
// the ring can copy it by value — no allocation anywhere on the path.
//
// The stamping protocol: Begin resets the trace and starts the lap
// clock; each Lap(stage) charges the time since the previous stamp to
// that stage; AttributeSubmit splits the solve into plan/repair/execute
// using the plan resolution's own measurements; Finish
// charges the final lap and freezes TotalNs. Because every lap charges
// its full duration to some stage, StageSum() == TotalNs for a
// finished trace.
type Trace struct {
	ID      uint64
	Start   time.Time
	TotalNs int64
	Wire    Wire
	Sampled bool // carries per-level timings in LevelNs
	Status  int32
	N       int32 // factor dimension
	Batch   int32 // right-hand sides in this request
	Fused   int32 // requests that shared the executor pass (always 1)
	Width   int32 // right-hand sides in the pass

	StratLen int32
	Strat    [StrategyLen]byte

	// Tenant attribution: the requesting tenant's name (inline,
	// truncated at TenantLen) and priority class (0 batch, 1 latency).
	TenLen int32
	Ten    [TenantLen]byte
	Class  uint8

	Stages [NumStages]int64 // nanoseconds per stage

	// NumLevels is the true wavefront level count of a sampled pass;
	// LevelNs holds per-level executor time for the first MaxLevels
	// levels (the tail folds into the last slot).
	NumLevels int32
	LevelNs   [MaxLevels]int64

	mark time.Time // lap clock: time of the previous stamp
}

// Begin resets the trace in place and starts its lap clock at now.
func (t *Trace) Begin(wire Wire, now time.Time) {
	*t = Trace{Wire: wire, Start: now, mark: now}
}

// Active reports whether the trace has been Begun (used by entry points
// that may be called directly, without the HTTP handler's Begin).
func (t *Trace) Active() bool { return !t.Start.IsZero() }

// Lap charges the time since the previous stamp to stage.
func (t *Trace) Lap(s Stage) {
	now := time.Now()
	t.Stages[s] += now.Sub(t.mark).Nanoseconds()
	t.mark = now
}

// AttributeSubmit charges the lap since the previous stamp — the solve:
// plan resolution, then the executor pass — across plan, repair and
// execute. planNs is the plan resolution's duration and repairNs its
// delta-repair share; the rest of the lap is the executor pass. Both are
// clamped to partition the lap exactly, so StageSum still equals TotalNs
// whatever the caller measured.
func (t *Trace) AttributeSubmit(planNs, repairNs int64) {
	now := time.Now()
	lap := max(now.Sub(t.mark).Nanoseconds(), 0)
	t.mark = now
	planNs = min(max(planNs, 0), lap)
	repairNs = min(max(repairNs, 0), planNs)
	t.Stages[StagePlan] += planNs - repairNs
	t.Stages[StageRepair] += repairNs
	t.Stages[StageExecute] += lap - planNs
}

// SetInfo records the pass shape without allocating (the strategy name
// is copied into the inline array, truncated at StrategyLen).
func (t *Trace) SetInfo(n, batch, fused, width int, strategy string) {
	t.N = int32(n)
	t.Batch = int32(batch)
	t.Fused = int32(fused)
	t.Width = int32(width)
	t.StratLen = int32(copy(t.Strat[:], strategy))
}

// Strategy returns the recorded strategy name. It allocates; reader
// side only.
func (t *Trace) Strategy() string { return string(t.Strat[:t.StratLen]) }

// SetTenant records the tenant name and class without allocating.
func (t *Trace) SetTenant(name string, class uint8) {
	t.TenLen = int32(copy(t.Ten[:], name))
	t.Class = class
}

// Tenant returns the recorded tenant name. It allocates; reader side
// only.
func (t *Trace) Tenant() string { return string(t.Ten[:t.TenLen]) }

// Finish charges the final lap to stage and freezes the total and
// status. After Finish, StageSum() == TotalNs.
func (t *Trace) Finish(s Stage, status int) {
	now := time.Now()
	t.Stages[s] += now.Sub(t.mark).Nanoseconds()
	t.mark = now
	t.TotalNs = now.Sub(t.Start).Nanoseconds()
	t.Status = int32(status)
}

// StageSum returns the summed per-stage nanoseconds.
func (t *Trace) StageSum() int64 {
	var sum int64
	for _, ns := range t.Stages {
		sum += ns
	}
	return sum
}
