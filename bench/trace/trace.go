// Package trace is the benchmark's span recorder. Spans are recorded by
// the benchmark itself, around its calls into each layer's public
// functions; they stay in memory until the run ends. The recorder is for
// the serial traced replay and is not safe for concurrent use.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created; Parent is the ID of the span that caused this one
// (-1 for a request's root); spans of one request share Request.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// Duration is the span's wall-clock length in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// NoParent is the Parent of a root span.
const NoParent = -1

// Recorder collects spans in memory.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// NewRecorder starts a recorder whose clock begins now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID.
func (r *Recorder) Start(name string, parent, request int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// End closes the span.
func (r *Recorder) End(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// Time records a span around f and returns how long f took.
func (r *Recorder) Time(name string, parent, request int, f func()) time.Duration {
	id := r.Start(name, parent, request)
	f()
	r.End(id)
	return time.Duration(r.spans[id].Duration())
}

// Spans returns the recorded spans in start order. The slice is the
// recorder's own.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteFile dumps the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != NoParent {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Duration() - covered
	}
	return self
}

// Unattributed is the share of total that the attributed parts do not
// account for: (total − Σ parts) ÷ total. It is negative when the parts
// sum to more than the total — stages re-driven one by one can cost more
// than the fused call they decompose.
func Unattributed(total int64, parts ...int64) float64 {
	if total <= 0 {
		return 0
	}
	sum := int64(0)
	for _, p := range parts {
		sum += p
	}
	return float64(total-sum) / float64(total)
}
