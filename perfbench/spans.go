package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Its layer is
// the name up to the first dot ("serve.submit" belongs to serve).
type span struct {
	Name       string
	ID, Parent int // Parent 0 marks an op's root span
	Op         int
	Start, End time.Duration // since the recorder was created
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps the spans of a traced run in memory until exit. A nil
// recorder records nothing, so untraced code paths pay one nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span that has begun; end records it. The zero value,
// returned by a nil recorder, does nothing.
type openSpan struct {
	r *recorder
	s span
}

// begin opens a span named name within op, under parent (the zero
// openSpan for an op's root).
func (r *recorder) begin(name string, op int, parent openSpan) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return openSpan{r: r, s: span{Name: name, ID: id, Parent: parent.s.ID, Op: op, Start: time.Since(r.t0)}}
}

func (o openSpan) end() {
	if o.r == nil {
		return
	}
	o.s.End = time.Since(o.r.t0)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// selfTime returns, per layer, the summed self time of the spans of
// workload ops (ops whose root span is the benchmark's own), and how many
// such ops there were. A span's self time is its duration minus the part
// of it its child spans cover.
func (r *recorder) selfTime() (map[string]time.Duration, int) {
	children := make(map[int][]span)
	workloadOp := make(map[int]bool)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
		if s.Parent == 0 && s.layer() == "bench" {
			workloadOp[s.Op] = true
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		if workloadOp[s.Op] {
			self[s.layer()] += s.End - s.Start - covered(s, children[s.ID])
		}
	}
	return self, len(workloadOp)
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	for _, v := range iv {
		if v[0] > reach {
			reach = v[0]
		}
		if v[1] > reach {
			total += v[1] - reach
			reach = v[1]
		}
	}
	return total
}

// chromeEvent is one complete event of the Chrome trace-event format,
// which Perfetto opens. Each op gets its own track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores every span in path as a Chrome trace-event file.
func (r *recorder) write(path string) error {
	evs := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
