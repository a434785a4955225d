package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qfw/internal/core"
)

// A run launches the stack and connects its clients setupWarm+setupRepeats
// times; setup_s is the median of the last setupRepeats. The first
// launches of a process are several times slower (heap growth, thread
// start-up) and are excluded as warm-up. Every launch but the last is torn
// down.
const (
	setupWarm    = 10
	setupRepeats = 101
)

// workload is one named traffic shape. The harness owns launch, timing,
// accounting and metrics; a workload owns its clients and its checks.
type workload interface {
	// why is the one-line reason the workload exists.
	why() string
	// config is the deployment the workload runs against: the default
	// one, every registered backend.
	config() core.Config
	// connect makes the workload's clients ready on a fresh session. It
	// is part of the measured set-up.
	connect(s *core.Session) error
	// prepare computes references and warms caches; it is not timed.
	prepare(h *harness) error
	// pass runs one unit of the workload's work, traced when tr is
	// non-nil.
	pass(h *harness, tr *tracer) error
	// finish runs the end-of-run checks.
	finish(h *harness) error
	// probes lists the circuits the per-layer probes run on.
	probes() []motif
	// close releases the workload's clients and servers; the harness
	// tears the session down afterwards.
	close()
}

// workloadSet maps each workload name to its constructor.
var workloadSet = map[string]func(seed int64) workload{
	"request_floor": newRequestFloor,
	"served_mix":    newServedMix,
	"scale_motifs":  newScaleMotifs,
	"dqaoa_solve":   newDQAOASolve,
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
func workloadNames() []string {
	return []string{"request_floor", "served_mix", "scale_motifs", "dqaoa_solve"}
}

// checkCount tallies one named output check.
type checkCount struct{ passed, failed int64 }

// samples is everything the measured window records. Client goroutines
// write it concurrently, so every field is guarded by mu.
type samples struct {
	mu sync.Mutex

	lat       latencies // untraced client request latency, ms
	latTraced latencies // traced client request latency, ms
	blocks    []*block  // closed blocks of untraced passes
	cur       *block    // the block untraced passes record into
	quality   []float64 // per-answer quality against the reference
	attempted int64
	failed    int64
	checks    map[string]*checkCount

	layer layerSamples // traced passes only
}

// blockSeconds is the length of one measurement block.
const blockSeconds = 0.5

// block is a stretch of consecutive untraced passes lasting at least
// blockSeconds (one pass when a pass is longer), with the CPU time the
// hypervisor stole from this machine while it ran.
type block struct {
	lat     latencies
	ops     int
	seconds float64   // summed pass time
	steal   float64   // seconds stolen, summed over CPUs
	passes  []float64 // wall time of one pass, s
	solves  []float64 // wall time of one solve, s (dqaoa_solve)
	iters   []float64 // wall time of one outer iteration, s (dqaoa_solve)
}

func newBlock() *block { return &block{lat: latencies{}, steal: -stealSeconds()} }

// quietBlocks merges the blocks whose steal share is at most the median
// share; the timing metrics are taken over them. On a shared host the
// hypervisor gives this machine's CPUs to other guests for stretches of
// seconds to minutes, and a block that loses a third of its CPU time runs
// its passes up to twice as long. The program can neither cause steal nor
// hide a slowdown in it. On an idle host every block qualifies.
func quietBlocks(blocks []*block) *block {
	share := make([]float64, len(blocks))
	for i, b := range blocks {
		share[i] = b.steal / b.seconds
	}
	limit := median(share)
	q := &block{lat: latencies{}}
	for i, b := range blocks {
		if share[i] > limit {
			continue
		}
		for c, xs := range b.lat {
			q.lat[c] = append(q.lat[c], xs...)
		}
		q.ops += b.ops
		q.seconds += b.seconds
		q.steal += b.steal
		q.passes = append(q.passes, b.passes...)
		q.solves = append(q.solves, b.solves...)
		q.iters = append(q.iters, b.iters...)
	}
	return q
}

// harness drives one run of one workload.
type harness struct {
	opts options
	w    workload
	sess *core.Session
	tr   *tracer // nil when untraced
	s    samples
	rep  *report
}

// report is everything one run measured.
type report struct {
	metrics   map[string]metric
	checks    map[string]*checkCount
	notes     []string
	attempted int64
	failed    int64
}

func (r *report) correct() bool {
	if r.attempted < 1 || r.failed != 0 {
		return false
	}
	for _, c := range r.checks {
		if c.failed != 0 {
			return false
		}
	}
	return true
}

func (h *harness) note(format string, args ...any) {
	h.rep.notes = append(h.rep.notes, fmt.Sprintf(format, args...))
}

// check records the outcome of one named output check and returns ok.
func (h *harness) check(name string, ok bool) bool {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	c := h.s.checks[name]
	if c == nil {
		c = &checkCount{}
		h.s.checks[name] = c
	}
	if ok {
		c.passed++
	} else {
		c.failed++
	}
	return ok
}

// latencies holds request latencies by request class: a motif, a kind of
// served request, or a kind of Frontend call.
type latencies map[string][]float64

func (l latencies) n() int {
	n := 0
	for _, xs := range l {
		n += len(xs)
	}
	return n
}

// quantile is the geometric mean over the request classes of each class's
// q-quantile. It is the benchmark's median: the pooled median of a mix of
// classes with distinct latencies falls on the boundary between two
// classes and swings with either one's tail, while this summary moves by a
// class's log share when that class gets faster or slower.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	var logSum float64
	for _, xs := range l {
		logSum += math.Log(quantile(xs, q))
	}
	return math.Exp(logSum / float64(len(l)))
}

// pooled returns every latency of every class in one slice.
func (l latencies) pooled() []float64 {
	var out []float64
	for _, xs := range l {
		out = append(out, xs...)
	}
	return out
}

// op records one attempted client request of a class: its latency and
// whether it failed (an error, a refusal or a failed check).
func (h *harness) op(class string, latMS float64, traced, failed bool) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.s.attempted++
	if failed {
		h.s.failed++
		return
	}
	if traced {
		h.s.latTraced[class] = append(h.s.latTraced[class], latMS)
		return
	}
	h.s.lat[class] = append(h.s.lat[class], latMS)
	h.s.cur.lat[class] = append(h.s.cur.lat[class], latMS)
	h.s.cur.ops++
}

// fail counts a failure found after the request was recorded: a check
// made at the end of the run or a failed solve.
func (h *harness) fail() {
	h.s.mu.Lock()
	h.s.failed++
	h.s.mu.Unlock()
}

// addSolve records one untraced DQAOA solve and its mean iteration time.
func (h *harness) addSolve(wall time.Duration, iterations int) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.s.cur.solves = append(h.s.cur.solves, wall.Seconds())
	h.s.cur.iters = append(h.s.cur.iters, wall.Seconds()/float64(max(iterations, 1)))
}

func (h *harness) addQuality(q float64) {
	h.s.mu.Lock()
	h.s.quality = append(h.s.quality, q)
	h.s.mu.Unlock()
}

// layer runs fn on the per-layer samples under the lock.
func (h *harness) layer(fn func(l *layerSamples)) {
	h.s.mu.Lock()
	fn(&h.s.layer)
	h.s.mu.Unlock()
}

// runWorkload performs one run: repeated set-up, untimed preparation,
// the measured window, end-of-run checks and, when traced, the layer
// probes.
func runWorkload(newW func(seed int64) workload, opts options) (*report, error) {
	h := &harness{opts: opts, rep: &report{}}
	h.s.checks = map[string]*checkCount{}
	h.s.lat, h.s.latTraced = latencies{}, latencies{}
	setup, err := h.setUp(newW)
	if err != nil {
		return nil, err
	}
	defer func() {
		h.w.close()
		h.sess.Teardown()
	}()
	if opts.trace {
		h.tr = newTracer(time.Now())
	}
	if err := h.w.prepare(h); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	parses0 := h.parseCount()
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds) * time.Second)
	h.s.cur = newBlock()
	for i := 0; time.Now().Before(deadline); i++ {
		// A traced run alternates traced and untraced passes, so the
		// tracing overhead is measured under the same conditions.
		var tr *tracer
		if i%2 == 0 {
			tr = h.tr
		}
		p0 := time.Now()
		if err := h.w.pass(h, tr); err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if tr != nil {
			continue
		}
		d := time.Since(p0).Seconds()
		h.s.mu.Lock()
		b := h.s.cur
		b.passes = append(b.passes, d)
		if b.seconds += d; b.seconds >= blockSeconds {
			b.steal += stealSeconds()
			h.s.blocks = append(h.s.blocks, b)
			h.s.cur = newBlock()
		}
		h.s.mu.Unlock()
	}
	if len(h.s.blocks) == 0 {
		h.s.cur.steal += stealSeconds()
		h.s.blocks = append(h.s.blocks, h.s.cur)
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	parses := h.parseCount() - parses0
	runtime.ReadMemStats(&ms1)
	if err := h.w.finish(h); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}

	s := &h.s
	ops := float64(s.lat.n() + s.latTraced.n())
	if ops == 0 {
		return nil, fmt.Errorf("no request completed in %v", wall)
	}
	h.rep.attempted, h.rep.failed, h.rep.checks = s.attempted, s.failed, s.checks
	h.note("why: %s", h.w.why())
	h.note("requests %d in %.3f s, failed_ratio %.6g (%d of %d attempted)",
		int(ops), wall.Seconds(), float64(s.failed)/float64(max(s.attempted, 1)), s.failed, s.attempted)
	if opts.trace {
		tr := h.tr
		h.rep.metrics = h.layerMetrics(layerWindow{
			ops: ops, cpu: cpu, parses: float64(parses),
			gc: float64(ms1.NumGC - ms0.NumGC),
		})
		path, err := tr.writeChrome(opts)
		if err != nil {
			return nil, err
		}
		h.note("spans %d written to %s", len(tr.spans), path)
		for _, line := range tr.selfTimeLines() {
			h.note("%s", line)
		}
		return h.rep, nil
	}
	// The tail percentiles and the throughput are reported but not
	// gated: over ten runs on a shared two-core host the 90th percentile
	// spread by up to a third of its median and request_floor's
	// throughput by up to a half, beyond any bound a regression check
	// could use. The medians (req_p50_ms, sweep_s, solve_s) held.
	h.note("pooled request latency over %d requests (not gated): p50 %.6g p90 %.6g p99 %.6g ms",
		s.lat.n(), quantile(s.lat.pooled(), 0.5), quantile(s.lat.pooled(), 0.9), quantile(s.lat.pooled(), 0.99))
	classes := make([]string, 0, len(s.lat))
	for c := range s.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := s.lat[c]
		h.note("class %-14s n %6d p50 %.6g p90 %.6g ms", c, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	q := quietBlocks(s.blocks)
	var steal, seconds float64
	for _, b := range s.blocks {
		steal, seconds = steal+b.steal, seconds+b.seconds
	}
	h.note("cpu steal %.3f s over %.3f s of passes in %d blocks; timings from the quieter half (%.3f s of passes, %.3f s stolen)",
		steal, seconds, len(s.blocks), q.seconds, q.steal)
	h.note("req_per_s %.6g req/s over the quieter half, %.6g over the window (not gated)",
		float64(q.ops)/q.seconds, ops/wall.Seconds())
	// A pass is one sweep of the input set and one solve, except on
	// dqaoa_solve, where a pass is a solve and a sweep is one outer
	// iteration.
	solves, sweeps := q.solves, q.iters
	if len(solves) == 0 {
		solves, sweeps = q.passes, q.passes
	}
	h.rep.metrics = map[string]metric{
		"setup_s":            {median(setup), "s"},
		"allocs_per_op":      {float64(ms1.Mallocs-ms0.Mallocs) / ops, "count"},
		"alloc_bytes_per_op": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops, "B"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"req_p50_ms":         {q.lat.quantile(0.5), "ms"},
		"sweep_s":            {median(sweeps), "s"},
		"solve_s":            {median(solves), "s"},
		"solve_quality":      {mean(s.quality), "ratio"},
	}
	return h.rep, nil
}

// setUp launches the stack and connects the workload's clients
// setupWarm+setupRepeats times, keeping the last deployment. It returns
// the set-up durations after warm-up.
func (h *harness) setUp(newW func(seed int64) workload) ([]float64, error) {
	var times []float64
	for i := 0; i < setupWarm+setupRepeats; i++ {
		w := newW(h.opts.seed)
		runtime.GC()
		t0 := time.Now()
		sess, err := core.Launch(w.config())
		if err != nil {
			return nil, fmt.Errorf("launch: %w", err)
		}
		if err := w.connect(sess); err != nil {
			w.close()
			sess.Teardown()
			return nil, fmt.Errorf("connect: %w", err)
		}
		if i >= setupWarm {
			times = append(times, time.Since(t0).Seconds())
		}
		if i < setupWarm+setupRepeats-1 {
			w.close()
			sess.Teardown()
			continue
		}
		h.w, h.sess = w, sess
	}
	return times, nil
}

// parseCount sums the QASM parses of every QPM in the session.
func (h *harness) parseCount() int64 {
	var n int64
	for _, b := range h.sess.Backends() {
		n += h.sess.QPM(b).ParseCount()
	}
	return n
}

// stealSeconds reads the CPU time the hypervisor has stolen from this
// machine, summed over CPUs (the steal column of /proc/stat), or 0 where
// it is not reported.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100 // USER_HZ
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM), or 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
