package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/defw"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one request share Req; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     int64
	Parent int64
	Req    int64
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps the benchmark's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// id allocates a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 { return t.next.Add(1) }

// record stores a finished span under a pre-allocated id.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, req, name, start, end)
	return id
}

// selfTimes returns, per span name, the mean self time in microseconds:
// a span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		sum[s.Name] += float64(self) / float64(time.Microsecond)
		n[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for name, v := range sum {
		out[name] = v / float64(n[name])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

func (t *tracer) selfTimeLines() []string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := make([]string, 0, len(names))
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("self %-24s %12.2f us/span", n, self[n]))
	}
	return lines
}

// writeChrome writes the spans as a Chrome trace-event file (complete
// "X" events, one row per request) and returns its path. Each event's
// args carry its span id, parent, request and self time.
func (t *tracer) writeChrome(opts options) (string, error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", opts.workload, opts.seed))
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Req,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "req": s.Req,
				"self_us": float64(self) / float64(time.Microsecond),
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// tapCtx is the span a tapped service's next RPCs belong to. One client
// uses each tap, so the client sets it before calling and the handler
// reads it while serving that call.
type tapCtx struct{ parent, req atomic.Int64 }

func (c *tapCtx) set(parent, req int64) {
	c.parent.Store(parent)
	c.req.Store(req)
}

// rpcTap wraps one service of a benchmark-owned DEFw server: each RPC
// gets a span named after its method, and the harness counts calls and
// payload bytes. Traced passes route their clients through taps; the
// untraced path uses the session's own endpoint.
type rpcTap struct {
	inner defw.Handler
	h     *harness
	tr    *tracer
	ctx   tapCtx
}

func (t *rpcTap) Handle(method string, payload []byte) ([]byte, error) {
	start := time.Now()
	out, err := t.inner.Handle(method, payload)
	end := time.Now()
	t.tr.add(t.ctx.parent.Load(), t.ctx.req.Load(), "defw."+method, start, end)
	t.h.layer(func(l *layerSamples) {
		l.rpcs++
		l.reqBytes += int64(len(payload))
		l.respBytes += int64(len(out))
	})
	return out, err
}
