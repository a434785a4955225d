package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/faults"
	"qfw/internal/trace"
)

// jobOp selects what a job computes for each of its bindings.
type jobOp string

const (
	// opSample executes the circuit: counts, plus <H> when an observable
	// is attached. It is the zero value, so a submit without "op" samples.
	opSample jobOp = ""
	// opGrad evaluates the observable and its analytic gradient.
	opGrad jobOp = "grad"
)

// job is the QPM's one unit of work: a spec plus its bindings and the
// operation to run on them. A single run is a sample job with the one
// binding nil; a batch ships K bindings; a gradient is a grad job. Direct
// submits are tenant "" jobs in the table; served jobs carry one Element
// per binding instead and never enter the table.
type job struct {
	id       string
	t        *tenant
	group    string // merge key of a served job; "" = never merged
	spec     CircuitSpec
	bindings []Bindings
	elems    []Element // served jobs only, parallel to bindings
	opts     RunOptions
	op       jobOp
	created  time.Time // first admission
	ready    time.Time // end of the admission window; guarded by QPM.mu while queued
	deadline time.Time // zero = none; from RunOptions.TimeoutMS at first admission
	retired  bool      // result returned by a wait; guarded by QPM.mu

	mu        sync.Mutex
	status    Status
	cancelled bool
	results   []*Result    // sample jobs, one per binding (nil = failed)
	grads     []GradResult // grad jobs, one per binding
	errs      []string     // one per binding, "" for success
	done      chan struct{}
}

func (j *job) snapshotStatus() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// what names the job in spans and error messages.
func (j *job) what() string {
	if j.op == opGrad {
		return "exec-grad:" + j.spec.Name
	}
	return "exec:" + j.spec.Name
}

// Element is one served circuit execution: its binding and the callback
// that receives its outcome (a result, or an error string) when the job
// carrying it finishes. Done runs on a QRC worker, outside the QPM's locks.
type Element struct {
	Binding Bindings
	Done    func(res *Result, errStr string)
	enq     time.Time
}

// Admission is one served submission handed to the QPM scheduler: a
// tenant's elements of one spec. Elements with a Group merge into the
// tenant's open same-group job until it holds MaxBatch elements or a
// worker picks it; elements without one travel as one job. A new job
// becomes ready Window after its first admission.
type Admission struct {
	Tenant   string
	Group    string
	Spec     CircuitSpec
	Opts     RunOptions
	Elems    []Element
	Window   time.Duration
	MaxBatch int
	Quota    int // outstanding-element bound for a tenant SetTenant gave none; 0 = none
}

// TenantStats is one tenant's accounting: fair-share weight, quota on
// outstanding (queued + running) elements (0 = the admission's), and
// elements served, shed and outstanding.
type TenantStats struct {
	Weight      int   `json:"weight"`
	Quota       int   `json:"quota"`
	Served      int64 `json:"served"`
	Shed        int64 `json:"shed"`
	Outstanding int   `json:"outstanding"`
}

// tenant is one fair-share class of the QPM queue. Direct submits are the
// tenant "": alone, stride order is FIFO.
type tenant struct {
	TenantStats
	name string
	pass float64 // stride-scheduling virtual time
	jobs []*job
	open map[string]*job // queued group jobs still merging, by group
}

// SchedStats is the scheduler's observable state: queued elements (now and
// peak), the served jobs formed, and per-tenant accounting.
type SchedStats struct {
	Queued, PeakQueued int
	Groups             int64
	Tenants            map[string]TenantStats
}

// maxRetained bounds how many jobs whose result a wait has already
// returned stay in the table; beyond it the oldest is evicted, so clients
// that never call Delete cannot grow a long-lived QPM without bound. Jobs
// nobody has waited on are never evicted.
const maxRetained = 1024

// defaultQueueCap bounds the elements queued across all tenants, direct
// and served alike.
const defaultQueueCap = 1024

// QPM is a Quantum Platform Manager service instance for one backend: it
// owns the job queue and lifecycle and dispatches jobs to its QRC worker
// threads. Single runs, batches and gradients are all jobs, so they share
// one table, one queue and one runner. The queue is the one scheduler:
// weighted stride fair share over per-tenant FIFOs, with served jobs
// coalescing in an admission window, and a worker picks the next job only
// when its slot frees, so every decision sees the full backlog.
type QPM struct {
	backend   string
	exec      Executor
	batch     BatchExecutor    // exec, or exec behind the bind-and-Execute adapter
	grad      GradientExecutor // nil when the backend cannot differentiate
	rec       *trace.Recorder
	cache     *ParseCache
	nextID    atomic.Int64
	inflight  atomic.Int64 // queued + running jobs
	busyNS    atomic.Int64 // cumulative worker busy time (utilization source)
	mu        sync.Mutex
	cond      *sync.Cond // on mu: a job became ready, or the QPM closed
	jobs      map[string]*job
	retired   [maxRetained]string // ring of waited-on job ids, oldest at retiredAt
	retiredAt int
	closed    bool
	quiesced  bool
	workers   int
	workerWG  sync.WaitGroup
	retry     faults.Policy // guarded by mu; see SetRetryPolicy

	// Scheduler state, guarded by mu.
	tenants            map[string]*tenant
	vtime              float64 // pass of the last picked tenant
	queued, peakQueued int     // queued elements across tenants
	queueCap           int
	groups             int64 // served jobs queued

	// Resolved metric handles (shared registry, labeled by backend).
	mTasks, mFails, mRetries *trace.Counter
	hQueue, hExec            *trace.Histogram
	gDepth                   *trace.Gauge
}

// NewQPM starts a QPM with the given number of QRC worker threads (the paper
// uses eight per QPM process).
func NewQPM(exec Executor, workers int, rec *trace.Recorder) *QPM {
	if workers <= 0 {
		workers = 8
	}
	if rec == nil {
		rec = trace.NewRecorder()
	}
	q := &QPM{
		backend:  exec.Name(),
		exec:     exec,
		rec:      rec,
		cache:    NewParseCache(),
		jobs:     make(map[string]*job),
		workers:  workers,
		retry:    DefaultRetryPolicy(),
		tenants:  make(map[string]*tenant),
		queueCap: defaultQueueCap,
	}
	q.cond = sync.NewCond(&q.mu)
	q.batch = asBatch(exec, q.cache)
	q.grad, _ = exec.(GradientExecutor)
	met := rec.Metrics()
	q.mTasks = met.Counter(trace.LabeledName("qfw_qpm_tasks_total", "backend", q.backend))
	q.mFails = met.Counter(trace.LabeledName("qfw_qpm_failures_total", "backend", q.backend))
	q.mRetries = met.Counter(trace.LabeledName("qfw_qpm_retries_total", "backend", q.backend))
	q.hQueue = met.Histogram(trace.LabeledName("qfw_qpm_queue_ms", "backend", q.backend))
	q.hExec = met.Histogram(trace.LabeledName("qfw_qpm_exec_ms", "backend", q.backend))
	q.gDepth = met.Gauge(trace.LabeledName("qfw_serve_queue_depth", "backend", q.backend))
	for w := 0; w < workers; w++ {
		q.workerWG.Add(1)
		go q.qrcWorker(w)
	}
	return q
}

// Backend returns the backend name this QPM serves.
func (q *QPM) Backend() string { return q.backend }

// Workers returns the number of QRC worker threads.
func (q *QPM) Workers() int { return q.workers }

// Capabilities returns the backing executor's capability row without an RPC
// round trip — the serving layer reads it to decide result-cache soundness.
func (q *QPM) Capabilities() Capabilities { return q.exec.Capabilities() }

// Recorder exposes the timing instrumentation.
func (q *QPM) Recorder() *trace.Recorder { return q.rec }

// BusyNS returns the cumulative busy nanoseconds across the QRC workers —
// the source a trace.UtilSampler turns into the backend's utilization
// time series.
func (q *QPM) BusyNS() int64 { return q.busyNS.Load() }

// ParseCount reports how many QASM parses this QPM's spec cache performed
// (only the adapter for executors without native batch support parses at
// the QPM; batch-native executors parse in their own caches).
func (q *QPM) ParseCount() int64 { return q.cache.Parses() }

// DefaultRetryPolicy is the QPM's per-execution retry: up to three
// attempts at transient failures with millisecond-scale full-jitter
// backoff. Deadline misses and permanent errors are never retried.
func DefaultRetryPolicy() faults.Policy {
	return faults.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// SetRetryPolicy replaces the executor retry policy (MaxAttempts of 1
// disables retrying). Tests and the fault-injection bench use it to
// toggle the recovery machinery; it applies to work submitted afterwards.
func (q *QPM) SetRetryPolicy(p faults.Policy) {
	q.mu.Lock()
	q.retry = p
	q.mu.Unlock()
}

func (q *QPM) retryPolicy() faults.Policy {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retry
}

// guarded runs one executor call with panic isolation and an optional
// deadline. The call executes on its own goroutine: a panic is recovered
// into a transient error (one crashing element must never take the worker
// or the daemon down), and a call still running at the deadline is
// abandoned — the worker slot frees immediately and the stray goroutine
// ends whenever the executor returns; its result is discarded. An
// already-expired deadline fails fast without touching the backend.
func guarded[T any](deadline time.Time, what string, call func() (T, error)) (T, error) {
	var zero T
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return zero, fmt.Errorf("%s: %w (expired before execution)", what, ErrDeadlineExceeded)
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var z T
				// Recovered panics are classified transient: the isolation
				// already contained the blast radius, and a bounded re-attempt
				// on fresh state is exactly the graceful-degradation contract.
				// A deterministic panic still fails after MaxAttempts.
				ch <- outcome{z, fmt.Errorf("%s: %w: executor panic: %v", what, faults.ErrTransient, p)}
			}
		}()
		v, err := call()
		ch <- outcome{v, err}
	}()
	if deadline.IsZero() {
		out := <-ch
		return out.v, out.err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-timer.C:
		return zero, fmt.Errorf("%s: %w (executor abandoned)", what, ErrDeadlineExceeded)
	}
}

// retried is one executor call under the full fault envelope: panic
// isolation, the job deadline, and transient retry. Each attempt records
// an "executor:" span on the worker's row (nesting under the job's span
// in the Chrome trace), and the returned RetryStats separate backoff time
// from execution time in the Timings breakdown.
func retried[T any](q *QPM, j *job, what, worker string, call func() (T, error)) (T, faults.RetryStats, error) {
	var v T
	rs, err := q.retryPolicy().DoStats(func(int) error {
		finish := q.rec.Span("executor:"+j.spec.Name, worker)
		defer finish()
		var err error
		v, err = guarded(j.deadline, what, call)
		return err
	})
	if rs.Attempts > 1 {
		q.mRetries.Add(int64(rs.Attempts - 1))
	}
	return v, rs, err
}

// qrcWorker is one Quantum Resource Controller thread: each time its slot
// frees it picks the next ready job and triggers the backend execution
// (MPI runs for local simulators, REST calls for cloud backends). Busy
// time accumulates per job for the utilization time series.
func (q *QPM) qrcWorker(id int) {
	defer q.workerWG.Done()
	worker := fmt.Sprintf("%s/qrc-%d", q.backend, id)
	for {
		j := q.next()
		if j == nil {
			return
		}
		start := time.Now()
		q.run(j, worker)
		q.busyNS.Add(int64(time.Since(start)))
		q.inflight.Add(-1)
	}
}

// next blocks until a job is ready for a free worker slot and returns the
// ready head job of the minimum-pass tenant (weighted stride scheduling),
// charging that tenant's virtual time with the job's elements. It returns
// nil once the QPM is closed and its queue empty.
func (q *QPM) next() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		now := time.Now()
		var best *tenant
		for _, t := range q.tenants {
			if len(t.jobs) == 0 || now.Before(t.jobs[0].ready) {
				continue
			}
			if best == nil || t.pass < best.pass || (t.pass == best.pass && t.name < best.name) {
				best = t
			}
		}
		if best != nil {
			j := best.jobs[0]
			best.jobs = slices.Delete(best.jobs, 0, 1) // keeps the array: no allocation per job
			if len(best.jobs) > 0 && !now.Before(best.jobs[0].ready) {
				q.cond.Signal() // the new head's own wake-up found it behind j
			}
			if best.open[j.group] == j {
				delete(best.open, j.group)
			}
			n := len(j.bindings)
			q.vtime = best.pass
			best.pass += float64(n) / float64(best.Weight)
			q.queued -= n
			q.gDepth.Record(float64(q.queued))
			return j
		}
		if q.closed && q.queued == 0 {
			return nil
		}
		q.cond.Wait()
	}
}

// Quiesce closes admission without stopping the workers: subsequent
// submissions fail with ErrDraining, open admission windows close at once,
// and already-queued work keeps executing. It is the first half of a
// graceful drain.
func (q *QPM) Quiesce() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.quiesced = true
	now := time.Now()
	for _, t := range q.tenants {
		for _, j := range t.open {
			if j.ready.After(now) {
				j.ready = now
			}
		}
	}
	q.cond.Broadcast()
}

// Pending reports how many jobs are queued or running.
func (q *QPM) Pending() int64 { return q.inflight.Load() }

// Drain quiesces the QPM and waits up to timeout for in-flight work to
// finish, reporting whether the queue fully drained. It does not stop the
// workers — Close still applies afterwards.
func (q *QPM) Drain(timeout time.Duration) bool {
	q.Quiesce()
	deadline := time.Now().Add(timeout)
	for q.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Close runs the queued work to completion and stops the workers.
func (q *QPM) Close() {
	q.Quiesce()
	q.mu.Lock()
	closed := q.closed
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	if !closed {
		q.workerWG.Wait()
	}
}

// SetQueueCap replaces the bound on queued elements, shared by direct and
// served traffic (tests and the load-shed probe shrink it).
func (q *QPM) SetQueueCap(n int) {
	q.mu.Lock()
	q.queueCap = n
	q.mu.Unlock()
}

// SetTenant configures a tenant's fair-share weight and outstanding-element
// quota (zero values keep the current ones).
func (q *QPM) SetTenant(name string, weight, quota int) {
	q.mu.Lock()
	t := q.tenantLocked(name)
	if weight > 0 {
		t.Weight = weight
	}
	if quota > 0 {
		t.Quota = quota
	}
	q.mu.Unlock()
}

func (q *QPM) tenantLocked(name string) *tenant {
	t, ok := q.tenants[name]
	if !ok {
		t = &tenant{TenantStats: TenantStats{Weight: 1}, name: name, open: make(map[string]*job)}
		q.tenants[name] = t
	}
	return t
}

// SchedStats snapshots the scheduler's queue and tenant accounting.
func (q *QPM) SchedStats() SchedStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := SchedStats{Queued: q.queued, PeakQueued: q.peakQueued, Groups: q.groups, Tenants: make(map[string]TenantStats, len(q.tenants))}
	for name, t := range q.tenants {
		st.Tenants[name] = t.TenantStats
	}
	return st
}

// admitLocked is the one admission check, for direct and served work
// alike: it fails on a closed or draining QPM, and sheds with a typed
// ErrOverloaded when n more elements would pass the queued-element bound
// or the tenant's quota (defaultQuota unless SetTenant set one). Admitted
// elements count as queued; a tenant that was idle restarts at the global
// virtual time, so it cannot bank credit and starve the others.
func (q *QPM) admitLocked(t *tenant, n, defaultQuota int) error {
	if q.closed {
		return fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		return fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	quota := t.Quota
	if quota <= 0 {
		quota = defaultQuota
	}
	var why string
	switch {
	case q.queued+n > q.queueCap:
		why = fmt.Sprintf("queue full (%d queued, cap %d)", q.queued, q.queueCap)
	case quota > 0 && t.Outstanding+n > quota:
		why = fmt.Sprintf("tenant %q has %d outstanding (quota %d)", t.name, t.Outstanding, quota)
	default:
		if len(t.jobs) == 0 && t.Outstanding == 0 {
			t.pass = max(t.pass, q.vtime)
		}
		t.Outstanding += n
		q.queued += n
		q.peakQueued = max(q.peakQueued, q.queued)
		q.gDepth.Record(float64(q.queued))
		return nil
	}
	t.Shed += int64(n)
	return fmt.Errorf("qpm[%s]: %w: %s; retry_after_ms=%d", q.backend, ErrOverloaded, why, retryAfterFor(q.queued)/time.Millisecond)
}

// enqueueLocked appends a new job of tenant t, admitted at now and ready
// once the window (if any) ends, to the tenant's queue. RunOptions.TimeoutMS
// becomes a deadline anchored at admission, so the window and the queue
// wait count against the budget.
func (q *QPM) enqueueLocked(t *tenant, spec CircuitSpec, opts RunOptions, now time.Time, window time.Duration) *job {
	j := &job{
		id:      fmt.Sprintf("%s-%d", q.backend, q.nextID.Add(1)),
		t:       t,
		spec:    spec,
		opts:    opts,
		created: now,
		ready:   now.Add(window),
		status:  StatusQueued,
	}
	if opts.TimeoutMS > 0 {
		j.deadline = now.Add(time.Duration(opts.TimeoutMS) * time.Millisecond)
	}
	t.jobs = append(t.jobs, j)
	q.inflight.Add(1)
	if window > 0 {
		time.AfterFunc(window, func() { q.mu.Lock(); q.cond.Signal(); q.mu.Unlock() })
	} else {
		q.cond.Signal()
	}
	return j
}

// submit is the direct admission path: it validates the job, registers it
// in the table and queues it as tenant "" without blocking. It fails on an
// empty spec or binding list, a gradient against a non-differentiating
// backend, or any admitLocked refusal; a rejected job leaves no trace in
// the table.
func (q *QPM) submit(spec CircuitSpec, bindings []Bindings, opts RunOptions, op jobOp) (string, error) {
	switch {
	case op != opSample && op != opGrad:
		return "", fmt.Errorf("qpm[%s]: unknown job op %q", q.backend, op)
	case op == opGrad && q.grad == nil:
		return "", fmt.Errorf("qpm[%s]: backend does not support gradient execution", q.backend)
	case spec.QASM == "":
		return "", fmt.Errorf("qpm[%s]: empty circuit spec", q.backend)
	case len(bindings) == 0:
		return "", fmt.Errorf("qpm[%s]: empty bindings", q.backend)
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked("")
	if err := q.admitLocked(t, len(bindings), 0); err != nil {
		return "", err
	}
	j := q.enqueueLocked(t, spec, opts, now, 0)
	j.bindings, j.op, j.done = bindings, op, make(chan struct{})
	q.jobs[j.id] = j
	return j.id, nil
}

// Admit queues one served submission; each element's Done fires when the
// job carrying it finishes. It fails like submit, before any element is
// queued.
func (q *QPM) Admit(a Admission) error {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(a.Tenant)
	if err := q.admitLocked(t, len(a.Elems), a.Quota); err != nil {
		return err
	}
	var j *job
	for _, e := range a.Elems {
		if a.Group != "" {
			// Merge into the tenant's open job for the group.
			j = t.open[a.Group]
		}
		if j == nil {
			j = q.enqueueLocked(t, a.Spec, a.Opts, now, a.Window)
			q.groups++
			if j.group = a.Group; j.group != "" {
				t.open[j.group] = j
			}
		}
		e.enq = now
		j.elems = append(j.elems, e)
		j.bindings = append(j.bindings, e.Binding)
		if j.group != "" && len(j.bindings) >= a.MaxBatch {
			// Full: stop merging and end the window at once.
			delete(t.open, a.Group)
			if j.ready.After(now) {
				j.ready = now
				q.cond.Signal()
			}
		}
	}
	return nil
}

// Submit enqueues one circuit execution: a sample job whose single
// binding is nil.
func (q *QPM) Submit(spec CircuitSpec, opts RunOptions) (string, error) {
	return q.submit(spec, []Bindings{nil}, opts, opSample)
}

// SubmitBatch enqueues one parametric batch: a single spec plus K
// bindings, executed as one job; WaitBatch returns the ordered results.
func (q *QPM) SubmitBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) (string, error) {
	return q.submit(spec, bindings, opts, opSample)
}

// SubmitGradient enqueues one gradient batch. The backend must implement
// GradientExecutor — callers probe Capabilities.Gradients first; a submit
// against a non-differentiating backend fails immediately.
func (q *QPM) SubmitGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) (string, error) {
	return q.submit(spec, bindings, opts, opGrad)
}

// run executes one job on a QRC worker. A grad job or a one-element
// sample job runs under the retry envelope. A multi-element sample job
// runs once as a whole; if that call fails it degrades to one-element
// runs with the same per-element seeds, so elements that recover are
// bit-identical to a clean run and one bad element costs only itself.
func (q *QPM) run(j *job, worker string) {
	j.mu.Lock()
	cancelled := j.cancelled
	if !cancelled {
		j.status = StatusRunning
	}
	j.mu.Unlock()

	var results []*Result
	var grads []GradResult
	j.errs = make([]string, len(j.bindings))
	if cancelled {
		// Deleted while queued: the job reaches a worker but must not
		// trigger a backend execution.
		j.errs[0] = "cancelled"
	} else {
		name, row := j.what(), worker
		if j.elems != nil {
			name, row = "serve:dispatch:"+j.spec.Name, "serve/"+q.backend+"/"+j.t.name
		}
		finish := q.rec.Span(name, row)
		switch {
		case j.op == opGrad:
			grads = q.runGrad(j, worker)
		case len(j.bindings) == 1:
			results = []*Result{q.runElement(j, 0, worker)}
		default:
			results = q.runWhole(j, worker)
		}
		finish()
	}

	j.mu.Lock()
	j.results, j.grads = results, grads
	j.status = StatusDone
	var failed int64
	for _, e := range j.errs {
		if e != "" {
			failed++
		}
	}
	if failed > 0 {
		j.status = StatusFailed
		q.mFails.Add(failed)
	}
	if j.done != nil {
		close(j.done)
	}
	j.mu.Unlock()

	n := len(j.bindings)
	q.mu.Lock()
	j.t.Outstanding -= n
	j.t.Served += int64(n)
	q.mu.Unlock()
	for i, e := range j.elems {
		e.Done(results[i], j.errs[i])
	}
}

// runGrad evaluates a grad job as one executor call under the retry
// envelope (the adjoint engine fans bindings across its own worker pool).
// A failure is recorded against the job's first binding.
func (q *QPM) runGrad(j *job, worker string) []GradResult {
	started := time.Now()
	grads, rs, err := retried(q, j, j.what(), worker, func() ([]GradResult, error) {
		return q.grad.ExecuteGradient(j.spec, j.bindings, j.opts)
	})
	if err != nil {
		j.errs[0] = err.Error()
		return nil
	}
	q.observeTimings(taskTimings(j.created, j.ready, started, time.Now(), rs))
	return grads
}

// runWhole hands every binding of a multi-element job to the executor in
// one call; ExecMS per element is the call's mean (elements share it).
func (q *QPM) runWhole(j *job, worker string) []*Result {
	results := make([]*Result, len(j.bindings))
	started := time.Now()
	execFinish := q.rec.Span("executor:"+j.spec.Name, worker)
	out, err := guarded(j.deadline, j.what(), func() ([]ExecResult, error) {
		return q.execBatch(j.spec, j.bindings, j.opts)
	})
	execFinish()
	if err != nil {
		for g := range j.bindings {
			results[g] = q.runElement(j, g, worker)
		}
		return results
	}
	perElem := time.Since(started) / time.Duration(len(out))
	for i, res := range out {
		results[i] = q.result(j, i, res, started, perElem, faults.RetryStats{Attempts: 1})
	}
	return results
}

// runElement executes binding g of a sample job alone under the retry
// envelope, with the seed it has in the whole job (ForElement(g)). A
// failure is recorded in the job's errs and yields a nil result.
func (q *QPM) runElement(j *job, g int, worker string) *Result {
	what := j.what()
	if len(j.bindings) > 1 {
		what = fmt.Sprintf("%s[%d]", what, g)
	}
	start := time.Now()
	res, rs, err := retried(q, j, what, worker, func() (ExecResult, error) {
		out, err := q.execBatch(j.spec, j.bindings[g:g+1], j.opts.ForElement(g))
		if err != nil {
			return ExecResult{}, err
		}
		return out[0], nil
	})
	if err != nil {
		j.errs[g] = err.Error()
		return nil
	}
	return q.result(j, g, res, start, time.Since(start), rs)
}

// execBatch is one executor call that must return a result per binding.
func (q *QPM) execBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	out, err := q.batch.ExecuteBatch(spec, bindings, opts)
	if err == nil && len(out) != len(bindings) {
		err = fmt.Errorf("qpm[%s]: batch executor returned %d results for %d bindings", q.backend, len(out), len(bindings))
	}
	return out, err
}

// result marshals element i's ExecResult into the unified format. A
// single-element job's result carries the job id itself, so a single run's
// TaskID is what Delete takes; batch elements are "id#i".
func (q *QPM) result(j *job, i int, res ExecResult, started time.Time, exec time.Duration, rs faults.RetryStats) *Result {
	enq := j.created
	if j.elems != nil {
		enq = j.elems[i].enq
	}
	tm := taskTimings(enq, j.ready, started, started.Add(exec), rs)
	q.observeTimings(tm)
	id := j.id
	if len(j.bindings) > 1 {
		id = fmt.Sprintf("%s#%d", j.id, i)
	}
	return &Result{
		TaskID:     id,
		Backend:    q.backend,
		Subbackend: j.opts.Subbackend,
		Counts:     res.Counts,
		ExpVal:     res.ExpVal,
		TruncErr:   res.TruncErr,
		Extra:      res.Extra,
		Route:      res.Route,
		Timings:    tm,
	}
}

// taskTimings assembles the breakdown of one executed element: the
// admission window's hold (enqueue until the job became ready; an element
// merged after that point waited none), the queue wait from ready until a
// worker picked the job, and execution wall time with retry backoff split
// out. The total is the exact component sum, so clients can always
// reconcile the parts against the whole.
func taskTimings(enq, ready, started, finished time.Time, rs faults.RetryStats) Timings {
	const ms = float64(time.Millisecond)
	if ready.Before(enq) {
		ready = enq
	}
	coalesce := float64(ready.Sub(enq)) / ms
	queue := float64(started.Sub(ready)) / ms
	backoff := float64(rs.Backoff) / ms
	exec := float64(finished.Sub(started))/ms - backoff
	if exec < 0 {
		exec = 0
	}
	tm := Timings{CoalesceWaitMS: coalesce, QueueMS: queue, ExecMS: exec, RetryBackoffMS: backoff, Attempts: rs.Attempts}
	tm.TotalMS = tm.Sum()
	return tm
}

// observeTimings feeds one completed element into the latency histograms
// and task counter.
func (q *QPM) observeTimings(tm Timings) {
	q.mTasks.Inc()
	q.hQueue.Observe(tm.QueueMS)
	q.hExec.Observe(tm.ExecMS)
}

// waitResp is a finished job's outcome and the reply of the "wait" RPC:
// ordered per-binding results (sample jobs) or gradients (grad jobs),
// with parallel error strings ("" for success).
type waitResp struct {
	Results []*Result    `json:"results,omitempty"`
	Grads   []GradResult `json:"grads,omitempty"`
	Errs    []string     `json:"errs,omitempty"`
}

// err returns the first element error, or nil.
func (r waitResp) err() error {
	for _, e := range r.Errs {
		if e != "" {
			return fmt.Errorf("%s", e)
		}
	}
	return nil
}

// single returns the one result of a single run.
func (r waitResp) single() (*Result, error) {
	if err := r.err(); err != nil {
		return nil, err
	}
	if len(r.Results) != 1 {
		return nil, fmt.Errorf("core: job returned %d results, want 1", len(r.Results))
	}
	return r.Results[0], nil
}

// gradients returns the per-binding gradients of a grad job.
func (r waitResp) gradients() ([]GradResult, error) {
	if err := r.err(); err != nil {
		return nil, err
	}
	if len(r.Grads) != len(r.Errs) {
		return nil, fmt.Errorf("core: gradient batch returned %d results for %d bindings", len(r.Grads), len(r.Errs))
	}
	return r.Grads, nil
}

// waitCtx is the one wait: it blocks until the job finishes or ctx ends
// (the job keeps running then), and marks the job retired so the table
// can evict it once maxRetained newer results have been returned.
func (q *QPM) waitCtx(ctx context.Context, id string) (waitResp, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return waitResp{}, fmt.Errorf("qpm[%s]: unknown task %s", q.backend, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return waitResp{}, fmt.Errorf("qpm[%s]: wait %s: %w", q.backend, id, ctx.Err())
	}
	q.mu.Lock()
	if !j.retired {
		j.retired = true
		if old := q.retired[q.retiredAt]; old != "" {
			delete(q.jobs, old)
		}
		q.retired[q.retiredAt] = id
		q.retiredAt = (q.retiredAt + 1) % maxRetained
	}
	q.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return waitResp{Results: j.results, Grads: j.grads, Errs: j.errs}, nil
}

// Wait blocks until a single run completes and returns its result.
func (q *QPM) Wait(id string) (*Result, error) {
	r, err := q.waitCtx(context.Background(), id)
	if err != nil {
		return nil, err
	}
	return r.single()
}

// WaitBatch blocks until every element of the batch completes and returns
// the ordered results plus per-element error strings ("" for success).
func (q *QPM) WaitBatch(id string) ([]*Result, []string, error) {
	r, err := q.waitCtx(context.Background(), id)
	return r.Results, r.Errs, err
}

// WaitGradient blocks until the gradient batch completes and returns the
// ordered per-binding results.
func (q *QPM) WaitGradient(id string) ([]GradResult, error) {
	r, err := q.waitCtx(context.Background(), id)
	if err != nil {
		return nil, err
	}
	return r.gradients()
}

// Status returns a job's state.
func (q *QPM) Status(id string) (Status, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("qpm[%s]: unknown task %s", q.backend, id)
	}
	return j.snapshotStatus(), nil
}

// Delete removes a finished (or never-run) job. Deleting a queued job
// cancels it: it still passes through the QRC queue but is dropped at the
// worker instead of executing. Running jobs refuse deletion — the
// execution cannot be recalled from the backend — unless their deadline has
// already passed: the guarded execution has then abandoned the backend
// call, and the entry would otherwise sit orphaned in the table.
func (q *QPM) Delete(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("qpm[%s]: unknown task %s", q.backend, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusRunning && (j.deadline.IsZero() || time.Now().Before(j.deadline)) {
		return fmt.Errorf("qpm[%s]: task %s is running", q.backend, id)
	}
	if j.status == StatusQueued || j.status == StatusRunning {
		j.cancelled = true
	}
	delete(q.jobs, id)
	return nil
}

// List returns every job ID with its state.
func (q *QPM) List() map[string]Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]Status, len(q.jobs))
	for id, j := range q.jobs {
		out[id] = j.snapshotStatus()
	}
	return out
}

// ---- DEFw RPC surface -------------------------------------------------

// submitReq is the payload of "submit": one spec, its bindings (a single
// run sends [null]) and the job op.
type submitReq struct {
	Spec     CircuitSpec `json:"spec"`
	Bindings []Bindings  `json:"bindings"`
	Opts     RunOptions  `json:"opts"`
	Op       jobOp       `json:"op,omitempty"`
}

type idMsg struct {
	ID string `json:"id"`
}

type statusMsg struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// Handle implements defw.Handler, exposing the QPM API over RPC: submit,
// wait, status, delete, list, capabilities.
func (q *QPM) Handle(method string, payload []byte) ([]byte, error) {
	var id idMsg
	if method == "wait" || method == "status" || method == "delete" {
		if err := json.Unmarshal(payload, &id); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
	}
	switch method {
	case "submit":
		var req submitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		jid, err := q.submit(req.Spec, req.Bindings, req.Opts, req.Op)
		return reply(idMsg{ID: jid}, err)
	case "wait":
		return reply(q.waitCtx(context.Background(), id.ID))
	case "status":
		st, err := q.Status(id.ID)
		return reply(statusMsg{ID: id.ID, Status: st}, err)
	case "delete":
		return reply(struct{}{}, q.Delete(id.ID))
	case "list":
		return json.Marshal(q.List())
	case "capabilities":
		return json.Marshal(q.exec.Capabilities())
	}
	return nil, fmt.Errorf("qpm[%s]: unknown method %q", q.backend, method)
}

// reply encodes an RPC result, or passes the call's error through.
func reply(v any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
