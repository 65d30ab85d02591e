package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Spans are recorded from the bench only, around the calls it makes
// into each layer: one root span per op and a child at each boundary the
// op crosses. They live in a preallocated per-client slice and are
// written out when the run ends. A layer's self time is its span minus
// its children; the root's self time is the bench's own.

const rootSpan = "op"

type span struct {
	name   string
	op     int32
	parent int32 // index into the log, -1 for a root
	start  int64 // ns since the log's epoch
	end    int64
}

type spanLog struct {
	client int
	epoch  time.Time
	spans  []span
	op     int32
}

func newSpanLog(client, ops int, epoch time.Time) *spanLog {
	// A library op records about 20 spans; serving ops 3.
	return &spanLog{client: client, epoch: epoch, spans: make([]span, 0, ops*24)}
}

// begin opens a span under parent; a nil log (the untraced loops)
// records nothing and reads no clock.
func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	if parent < 0 {
		l.op++
	}
	l.spans = append(l.spans, span{name: name, op: l.op, parent: parent, start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l != nil {
		l.spans[i].end = int64(time.Since(l.epoch))
	}
}

// child records a span whose duration a layer reported itself
// (BuildStats), anchored at its parent's start.
func (l *spanLog) child(name string, parent int32, ns int64) {
	if l == nil || ns <= 0 {
		return
	}
	s := l.spans[parent].start
	l.spans = append(l.spans, span{name: name, op: l.op, parent: parent, start: s, end: s + ns})
}

// spanSummary is the per-name roll-up of a traced loop.
type spanSummary struct {
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`      // mean span duration
	SelfUs float64 `json:"self_mean_us"` // mean duration minus children
}

// tracedLoop is what the traced run hands to the per-layer pass.
type tracedLoop struct {
	ref    segment // the same op count, every op verified as well, but no spans
	seg    segment
	logs   []*spanLog
	totals map[string]*spanTotal
}

type spanTotal struct {
	count    int
	dur, own int64
}

// rollUp computes per-name totals of duration and self time.
func rollUp(logs []*spanLog) map[string]*spanTotal {
	totals := make(map[string]*spanTotal)
	for _, l := range logs {
		own := make([]int64, len(l.spans))
		for i, s := range l.spans {
			d := s.end - s.start
			own[i] += d
			if s.parent >= 0 {
				own[s.parent] -= d
			}
		}
		for i, s := range l.spans {
			t := totals[s.name]
			if t == nil {
				t = &spanTotal{}
				totals[s.name] = t
			}
			t.count++
			t.dur += s.end - s.start
			t.own += own[i]
		}
	}
	return totals
}

// selfFrac is the share of op time no child span covers.
func (tr *tracedLoop) selfFrac() float64 {
	root := tr.totals[rootSpan]
	if root == nil || root.dur == 0 {
		return 0
	}
	return float64(root.own) / float64(root.dur)
}

// meanNs is the mean duration of the named span, 0 when it never ran.
func (tr *tracedLoop) meanNs(name string) float64 {
	t := tr.totals[name]
	if t == nil || t.count == 0 {
		return 0
	}
	return float64(t.dur) / float64(t.count)
}

func (tr *tracedLoop) summary() map[string]spanSummary {
	out := make(map[string]spanSummary, len(tr.totals))
	for name, t := range tr.totals {
		n := float64(t.count)
		out[name] = spanSummary{Count: t.count, MeanUs: float64(t.dur) / n / 1e3, SelfUs: float64(t.own) / n / 1e3}
	}
	return out
}

// ledgerLine renders "op = Σ self times" for the human report.
func (tr *tracedLoop) ledgerLine() string {
	root := tr.totals[rootSpan]
	if root == nil || root.count == 0 {
		return ""
	}
	names := make([]string, 0, len(tr.totals))
	for name := range tr.totals {
		if name != rootSpan {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ops := float64(root.count)
	line := fmt.Sprintf("op %.1f us =", float64(root.dur)/ops/1e3)
	for _, name := range names {
		line += fmt.Sprintf(" %s %.1f +", name, float64(tr.totals[name].own)/ops/1e3)
	}
	return line + fmt.Sprintf(" bench self %.1f (%.2f%%)", float64(root.own)/ops/1e3, 100*tr.selfFrac())
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for i, s := range l.spans {
			rec := struct {
				Name    string `json:"name"`
				Client  int    `json:"client"`
				Op      int32  `json:"op"`
				ID      int    `json:"id"`
				Parent  int32  `json:"parent"`
				StartNs int64  `json:"start_ns"`
				EndNs   int64  `json:"end_ns"`
			}{s.name, l.client, s.op, i, s.parent, s.start, s.end}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
