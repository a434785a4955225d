package core

import (
	"context"
	"encoding/json"
	"fmt"
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
// binding nil; a batch ships K bindings; a gradient is a grad job.
type job struct {
	id       string
	spec     CircuitSpec
	bindings []Bindings
	opts     RunOptions
	op       jobOp
	created  time.Time
	deadline time.Time // zero = none; from RunOptions.TimeoutMS at submission
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

// maxRetained bounds how many jobs whose result a wait has already
// returned stay in the table; beyond it the oldest is evicted, so clients
// that never call Delete cannot grow a long-lived QPM without bound. Jobs
// nobody has waited on are never evicted.
const maxRetained = 1024

// QPM is a Quantum Platform Manager service instance for one backend: it
// owns the job queue and lifecycle and dispatches jobs to its QRC worker
// threads. Single runs, batches and gradients are all jobs, so they share
// one table, one queue and one runner.
type QPM struct {
	backend   string
	exec      Executor
	batch     BatchExecutor    // exec, or exec behind the bind-and-Execute adapter
	grad      GradientExecutor // nil when the backend cannot differentiate
	rec       *trace.Recorder
	cache     *ParseCache
	queue     chan *job
	nextID    atomic.Int64
	inflight  atomic.Int64 // queued + running jobs
	busyNS    atomic.Int64 // cumulative worker busy time (utilization source)
	mu        sync.Mutex
	jobs      map[string]*job
	retired   [maxRetained]string // ring of waited-on job ids, oldest at retiredAt
	retiredAt int
	closed    bool
	quiesced  bool
	workers   int
	workerWG  sync.WaitGroup
	retry     faults.Policy // guarded by mu; see SetRetryPolicy

	// Resolved metric handles (shared registry, labeled by backend).
	mTasks, mFails, mRetries *trace.Counter
	hQueue, hExec            *trace.Histogram
}

// defaultQueueCap is the QPM job-queue depth (tests shrink it via
// newQPMWithQueueCap to exercise the queue-full path).
const defaultQueueCap = 1024

// NewQPM starts a QPM with the given number of QRC worker threads (the paper
// uses eight per QPM process).
func NewQPM(exec Executor, workers int, rec *trace.Recorder) *QPM {
	return newQPMWithQueueCap(exec, workers, rec, defaultQueueCap)
}

func newQPMWithQueueCap(exec Executor, workers int, rec *trace.Recorder, queueCap int) *QPM {
	if workers <= 0 {
		workers = 8
	}
	if rec == nil {
		rec = trace.NewRecorder()
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	q := &QPM{
		backend: exec.Name(),
		exec:    exec,
		rec:     rec,
		cache:   NewParseCache(),
		queue:   make(chan *job, queueCap),
		jobs:    make(map[string]*job),
		workers: workers,
		retry:   DefaultRetryPolicy(),
	}
	q.batch = asBatch(exec, q.cache)
	q.grad, _ = exec.(GradientExecutor)
	met := rec.Metrics()
	q.mTasks = met.Counter(trace.LabeledName("qfw_qpm_tasks_total", "backend", q.backend))
	q.mFails = met.Counter(trace.LabeledName("qfw_qpm_failures_total", "backend", q.backend))
	q.mRetries = met.Counter(trace.LabeledName("qfw_qpm_retries_total", "backend", q.backend))
	q.hQueue = met.Histogram(trace.LabeledName("qfw_qpm_queue_ms", "backend", q.backend))
	q.hExec = met.Histogram(trace.LabeledName("qfw_qpm_exec_ms", "backend", q.backend))
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

// deadlineFor converts RunOptions.TimeoutMS into an absolute deadline
// anchored at submission, so queue wait counts against the budget.
func deadlineFor(created time.Time, opts RunOptions) time.Time {
	if opts.TimeoutMS <= 0 {
		return time.Time{}
	}
	return created.Add(time.Duration(opts.TimeoutMS) * time.Millisecond)
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

// qrcWorker is one Quantum Resource Controller thread: it pulls queued jobs
// and triggers backend executions (MPI runs for local simulators, REST
// calls for cloud backends). Busy time accumulates per job for the
// utilization time series.
func (q *QPM) qrcWorker(id int) {
	defer q.workerWG.Done()
	worker := fmt.Sprintf("%s/qrc-%d", q.backend, id)
	for j := range q.queue {
		start := time.Now()
		q.run(j, worker)
		q.busyNS.Add(int64(time.Since(start)))
		q.inflight.Add(-1)
	}
}

// Quiesce closes admission without stopping the workers: subsequent
// submissions fail with ErrDraining while already-queued work keeps
// executing. It is the first half of a graceful drain.
func (q *QPM) Quiesce() {
	q.mu.Lock()
	q.quiesced = true
	q.mu.Unlock()
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

// Close drains the queue and stops the workers.
func (q *QPM) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.queue)
	q.mu.Unlock()
	q.workerWG.Wait()
}

// submit is the one admission path: it validates the job, registers it and
// enqueues it without blocking. It fails on an empty spec or binding list,
// a gradient against a non-differentiating backend, a closed or draining
// QPM, or a full queue; a rejected job leaves no trace in the table.
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
	created := time.Now()
	j := &job{
		id:       fmt.Sprintf("%s-%d", q.backend, q.nextID.Add(1)),
		spec:     spec,
		bindings: bindings,
		opts:     opts,
		op:       op,
		created:  created,
		deadline: deadlineFor(created, opts),
		status:   StatusQueued,
		errs:     make([]string, len(bindings)),
		done:     make(chan struct{}),
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		return "", fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	select {
	case q.queue <- j:
	default:
		return "", fmt.Errorf("qpm[%s]: queue full", q.backend)
	}
	q.inflight.Add(1)
	q.jobs[j.id] = j
	return j.id, nil
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
	if cancelled {
		// Deleted while queued: the job reaches a worker but must not
		// trigger a backend execution.
		j.errs[0] = "cancelled"
	} else {
		finish := q.rec.Span(j.what(), worker)
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
	close(j.done)
	j.mu.Unlock()
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
	q.observeTimings(taskTimings(j.created, started, time.Now(), rs))
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
	tm := taskTimings(j.created, started, started.Add(exec), rs)
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

// taskTimings assembles the breakdown of one executed element: queue
// wait, execution wall time with retry backoff split out, and the total
// as the exact component sum (so clients can always reconcile the parts
// against the whole).
func taskTimings(created, started, finished time.Time, rs faults.RetryStats) Timings {
	const ms = float64(time.Millisecond)
	queue := float64(started.Sub(created)) / ms
	backoff := float64(rs.Backoff) / ms
	exec := float64(finished.Sub(started))/ms - backoff
	if exec < 0 {
		exec = 0
	}
	tm := Timings{QueueMS: queue, ExecMS: exec, RetryBackoffMS: backoff, Attempts: rs.Attempts}
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
