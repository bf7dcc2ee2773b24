package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the bench's side of
// the boundary. Spans of one job or request share Trace
// (workload/arm/rep); Parent is the span that caused this one (0 for a
// root). Counts are counters read at the same boundaries (pool hits,
// mallocs, batch sizes), so ratios are measured where the work happens.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so phases shared between the traced and
// untraced runs call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// add records a span whose ends were observed elsewhere (the arrival
// times of frames a client callback saw).
func (t *tracer) add(trace, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// count attaches a counter reading to a span.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// nameSummary aggregates every span of one name.
type nameSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// finish computes self times (duration minus the part of the interval the
// span's children cover) and the per-name summary.
func (t *tracer) finish() ([]span, []nameSummary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*nameSummary{}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
		sum := byName[s.Name]
		if sum == nil {
			sum = &nameSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += s.Self
	}
	summary := make([]nameSummary, 0, len(byName))
	for _, s := range byName {
		summary = append(summary, *s)
	}
	sort.Slice(summary, func(i, j int) bool { return summary[i].SelfNs > summary[j].SelfNs })
	return t.spans, summary
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Summary  []nameSummary `json:"summary"`
	Spans    []span        `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64) (string, []nameSummary, error) {
	spans, summary := t.finish()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	js, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Summary: summary, Spans: spans})
	if err != nil {
		return "", nil, err
	}
	return path, summary, os.WriteFile(path, append(js, '\n'), 0o644)
}
