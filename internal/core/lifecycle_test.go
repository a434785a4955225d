package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"qfw/internal/trace"
)

// gatedExec blocks every execution until open() is called, so tests can
// pin tasks in the Queued/Running states and exercise the lifecycle edges.
type gatedExec struct {
	gate      chan struct{}
	once      sync.Once
	mu        sync.Mutex
	execCalls int
	gradCalls int
}

func newGatedExec() *gatedExec { return &gatedExec{gate: make(chan struct{})} }

func (g *gatedExec) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedExec) Name() string { return "gated" }
func (g *gatedExec) Capabilities() Capabilities {
	return Capabilities{Backend: "gated", CPU: true, Gradients: true}
}

func (g *gatedExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	g.mu.Lock()
	g.execCalls++
	g.mu.Unlock()
	<-g.gate
	return ExecResult{Counts: map[string]int{"00": 1}}, nil
}

func (g *gatedExec) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	g.mu.Lock()
	g.gradCalls++
	g.mu.Unlock()
	<-g.gate
	out := make([]GradResult, len(bindings))
	return out, nil
}

func (g *gatedExec) counts() (int, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.execCalls, g.gradCalls
}

// blockWorker submits a task that pins the QPM's single worker until the
// gate opens, so everything submitted after it stays queued.
func blockWorker(t *testing.T, q *QPM, spec CircuitSpec) string {
	t.Helper()
	id, err := q.Submit(spec, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := q.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st == StatusRunning {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started (status %s)", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeleteQueuedBatchCancelsUnstartedChunks(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)
	blockWorker(t, q, spec)

	id, err := q.SubmitBatch(spec, []Bindings{nil, nil, nil}, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := q.Status(id); st != StatusQueued {
		t.Fatalf("batch status %s, want queued behind the blocker", st)
	}
	if err := q.Delete(id); err != nil {
		t.Fatalf("delete queued batch: %v", err)
	}
	if _, err := q.Status(id); err == nil {
		t.Fatal("deleted batch still listed")
	}

	g.open()
	deadline := time.Now().Add(5 * time.Second)
	for q.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	// The cancelled chunks passed through the queue without touching the
	// backend: only the blocker executed.
	if execs, _ := g.counts(); execs != 1 {
		t.Fatalf("backend executed %d times, want 1 (cancelled batch must not run)", execs)
	}
}

func TestDeleteRunningBatchRefused(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)

	id, err := q.SubmitBatch(spec, []Bindings{nil, nil}, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := q.Status(id)
		if st == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never started (status %s)", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Delete(id); err == nil || !strings.Contains(err.Error(), "running") {
		t.Fatalf("deleting a running batch returned %v, want running refusal", err)
	}
	g.open()
	if _, _, err := q.WaitBatch(id); err != nil {
		t.Fatal(err)
	}
	if err := q.Delete(id); err != nil {
		t.Fatalf("delete finished batch: %v", err)
	}
}

func TestDeleteQueuedGradientCancels(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)
	blockWorker(t, q, spec)

	id, err := q.SubmitGradient(spec, []Bindings{{"t": 0.1}}, RunOptions{Observable: &Observable{Fields: []float64{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := q.Status(id); st != StatusQueued {
		t.Fatalf("gradient status %s, want queued", st)
	}
	if err := q.Delete(id); err != nil {
		t.Fatalf("delete queued gradient: %v", err)
	}

	g.open()
	deadline := time.Now().Add(5 * time.Second)
	for q.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if _, grads := g.counts(); grads != 0 {
		t.Fatalf("backend ran %d gradient batches, want 0 (cancelled)", grads)
	}
	if _, err := q.WaitGradient(id); err == nil {
		t.Fatal("deleted gradient still waitable")
	}
}

func TestListReportsBatchAndGradientStatuses(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)

	blocker := blockWorker(t, q, spec)
	batchID, err := q.SubmitBatch(spec, []Bindings{nil, nil}, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	gradID, err := q.SubmitGradient(spec, []Bindings{{"t": 0.2}}, RunOptions{Observable: &Observable{Fields: []float64{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}

	list := q.List()
	if list[blocker] != StatusRunning {
		t.Fatalf("blocker listed as %s, want running", list[blocker])
	}
	if list[batchID] != StatusQueued {
		t.Fatalf("batch listed as %s, want queued", list[batchID])
	}
	if list[gradID] != StatusQueued {
		t.Fatalf("gradient listed as %s, want queued", list[gradID])
	}

	g.open()
	if _, _, err := q.WaitBatch(batchID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.WaitGradient(gradID); err != nil {
		t.Fatal(err)
	}
	list = q.List()
	if list[batchID] != StatusDone || list[gradID] != StatusDone {
		t.Fatalf("after completion batch=%s grad=%s, want done/done", list[batchID], list[gradID])
	}
}

func TestQuiesceClosesAdmissionAndDrainWaits(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)
	blockWorker(t, q, spec)

	if q.Drain(10 * time.Millisecond) {
		t.Fatal("drain reported success with a blocked task in flight")
	}
	if _, err := q.Submit(spec, RunOptions{Shots: 1}); !IsDraining(err) {
		t.Fatalf("post-quiesce submit returned %v, want ErrDraining", err)
	}
	if _, err := q.SubmitBatch(spec, []Bindings{nil}, RunOptions{Shots: 1}); !IsDraining(err) {
		t.Fatalf("post-quiesce batch returned %v, want ErrDraining", err)
	}
	if _, err := q.SubmitGradient(spec, []Bindings{{"t": 0.1}}, RunOptions{Observable: &Observable{Fields: []float64{1, 0}}}); !IsDraining(err) {
		t.Fatalf("post-quiesce gradient returned %v, want ErrDraining", err)
	}

	g.open()
	if !q.Drain(5 * time.Second) {
		t.Fatal("drain did not complete after the gate opened")
	}
	if q.Pending() != 0 {
		t.Fatalf("pending %d after drain", q.Pending())
	}
}

// TestJobTableBoundedWithoutDelete: clients that never call Delete cannot
// grow the table without bound. Jobs whose result a wait returned are
// evicted oldest-first beyond maxRetained; jobs nobody waited on stay, and
// Delete right after Wait still finds its job.
func TestJobTableBoundedWithoutDelete(t *testing.T) {
	spec := bell(t)
	newQ := func() *QPM {
		q := NewQPM(&fakeBatchExec{fakeExec: fakeExec{name: "fake"}}, 2, trace.NewRecorder())
		t.Cleanup(q.Close)
		return q
	}
	submit := func(q *QPM) string {
		id, err := q.Submit(spec, RunOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	runWaited := func(q *QPM, n int) {
		for i := 0; i < n; i++ {
			if _, err := q.Wait(submit(q)); err != nil {
				t.Fatal(err)
			}
		}
	}

	q := newQ()
	runWaited(q, 10000)
	if n := len(q.List()); n > maxRetained {
		t.Fatalf("table holds %d jobs after 10k submit+wait, want <= %d", n, maxRetained)
	}
	id := submit(q)
	if _, err := q.Wait(id); err != nil {
		t.Fatal(err)
	}
	if err := q.Delete(id); err != nil {
		t.Fatalf("Delete right after Wait: %v", err)
	}

	q = newQ()
	unwaited := []string{submit(q), submit(q), submit(q)}
	runWaited(q, 2*maxRetained)
	for _, id := range unwaited {
		if _, err := q.Status(id); err != nil {
			t.Fatalf("job %s was evicted before anyone waited on it: %v", id, err)
		}
	}
}
