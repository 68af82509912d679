package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around its own
// calls into a layer. Spans of one client connection share Trace; Parent
// is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one branch per span.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns a fresh span or trace identifier (never 0).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// rec builds a span from wall-clock bounds without storing it; callers
// batch spans and hand them to add.
func (t *tracer) rec(trace, id, parent uint64, name string, start, end time.Time) span {
	return span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
}

// add stores spans.
func (t *tracer) add(ss ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// timed runs f inside a root span of its own trace and returns f's
// duration.
func (t *tracer) timed(name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	if t != nil {
		id := t.newID()
		t.add(t.rec(id, id, 0, name, start, end))
	}
	return end.Sub(start)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count
// once). The counts are the number of spans per name.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int64) {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self = map[string]time.Duration{}
	count = map[string]int64{}
	for _, s := range spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// addSelfTimes reports every span name's self time as a per-layer metric.
func addSelfTimes(rep *report, spans []span) {
	self, count := selfTimes(spans)
	for _, name := range spanNames {
		if n := count[name]; n > 0 {
			rep.layer["self_ms."+name] = value{v: float64(self[name]) / float64(time.Millisecond), n: n,
				base: fmt.Sprintf("summed over %d spans", n)}
		}
	}
}

// addOverhead reports tracing overhead as the traced run's loss against
// the untraced one on throughput and median latency.
func addOverhead(rep *report, plainRate, tracedRate, plainP50, tracedP50 float64) {
	rep.layer["tracing.overhead_req_per_s_frac"] = value{v: frac(plainRate-tracedRate, plainRate), n: 2,
		base: fmt.Sprintf("untraced %.6g minus traced %.6g req/s, over untraced", plainRate, tracedRate)}
	rep.layer["tracing.overhead_latency_p50_frac"] = value{v: frac(tracedP50-plainP50, plainP50), n: 2,
		base: fmt.Sprintf("traced %.6g minus untraced %.6g ms, over untraced", tracedP50, plainP50)}
}

// writeSpans writes the spans as JSON lines under the run's directory and
// returns the file's path.
func writeSpans(o options, spans []span) (string, error) {
	dir := filepath.Join(o.dir, "perfbench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
