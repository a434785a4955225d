package core

import (
	"fmt"
	"sync"

	"qfw/internal/circuit"
	"qfw/internal/defw"
)

// Properties selects a backend and sub-backend, mirroring the paper's
// runtime-property mechanism:
//
//	backend := session.Frontend(core.Properties{Backend: "nwqsim", Subbackend: "MPI"})
type Properties struct {
	Backend    string `json:"backend"`
	Subbackend string `json:"subbackend,omitempty"`
}

// ServiceName returns the DEFw service a backend's QPM registers under.
func ServiceName(backend string) string { return "qpm." + backend }

// Frontend is the application-side handle (the QFwBackend analog): it
// serializes circuits, issues RPCs to the selected QPM, and unmarshals the
// unified results. It is safe for concurrent use.
type Frontend struct {
	client *defw.Client
	props  Properties

	capsMu sync.Mutex
	caps   Capabilities
	capsOK bool
}

// NewFrontend builds a frontend over an existing DEFw client connection.
func NewFrontend(client *defw.Client, props Properties) (*Frontend, error) {
	if props.Backend == "" {
		return nil, fmt.Errorf("core: Properties.Backend is required")
	}
	return &Frontend{client: client, props: props}, nil
}

// Properties returns the frontend's backend selection.
func (f *Frontend) Properties() Properties { return f.props }

// call issues one RPC to the backend's QPM, JSON-encoding req and decoding
// the reply into resp.
func (f *Frontend) call(method string, req, resp any) error {
	return defw.CallJSON(f.client, ServiceName(f.props.Backend), method, req, resp)
}

// submit ships one job — the spec once plus its bindings — in a single
// "submit" RPC and returns the job id.
func (f *Frontend) submit(spec CircuitSpec, bindings []Bindings, opts RunOptions, op jobOp) (string, error) {
	if opts.Subbackend == "" {
		opts.Subbackend = f.props.Subbackend
	}
	var id idMsg
	err := f.call("submit", submitReq{Spec: spec, Bindings: bindings, Opts: opts, Op: op}, &id)
	return id.ID, err
}

// wait blocks in one "wait" RPC until the job finishes and returns its
// outcome.
func (f *Frontend) wait(id string) (waitResp, error) {
	var r waitResp
	err := f.call("wait", idMsg{ID: id}, &r)
	return r, err
}

// status polls a job's state without blocking.
func (f *Frontend) status(id string) (Status, error) {
	var st statusMsg
	err := f.call("status", idMsg{ID: id}, &st)
	return st.Status, err
}

// Run executes a circuit synchronously and returns the unified result.
func (f *Frontend) Run(c *circuit.Circuit, opts RunOptions) (*Result, error) {
	pending, err := f.RunAsync(c, opts)
	if err != nil {
		return nil, err
	}
	return pending.Result()
}

// Pending is an in-flight asynchronous execution.
type Pending struct {
	front  *Frontend
	TaskID string
}

// Result blocks until the task finishes and returns the unified result.
func (p *Pending) Result() (*Result, error) {
	r, err := p.front.wait(p.TaskID)
	if err != nil {
		return nil, err
	}
	return r.single()
}

// Status polls the task state without blocking.
func (p *Pending) Status() (Status, error) { return p.front.status(p.TaskID) }

// RunAsync submits a circuit and returns immediately with a handle — the
// non-blocking path variational workloads use to keep many circuit
// evaluations in flight per optimizer iteration.
func (f *Frontend) RunAsync(c *circuit.Circuit, opts RunOptions) (*Pending, error) {
	spec, err := SpecFromCircuit(c)
	if err != nil {
		return nil, err
	}
	id, err := f.submit(spec, []Bindings{nil}, opts, opSample)
	if err != nil {
		return nil, err
	}
	return &Pending{front: f, TaskID: id}, nil
}

// PendingBatch is an in-flight asynchronous batch execution.
type PendingBatch struct {
	front   *Frontend
	BatchID string
	N       int
}

// RunBatchAsync ships the (possibly parametric) circuit once plus the
// binding list in a single submit RPC and returns immediately — the
// batched analog of RunAsync. One optimizer iteration's candidate set costs
// one round trip instead of K.
func (f *Frontend) RunBatchAsync(c *circuit.Circuit, bindings []Bindings, opts RunOptions) (*PendingBatch, error) {
	spec, err := SpecFromParametric(c)
	if err != nil {
		return nil, err
	}
	id, err := f.submit(spec, bindings, opts, opSample)
	if err != nil {
		return nil, err
	}
	return &PendingBatch{front: f, BatchID: id, N: len(bindings)}, nil
}

// Results blocks until every element finishes and returns the ordered
// results. On element failures it returns the partial results (nil at the
// failed slots) together with the first element error.
func (p *PendingBatch) Results() ([]*Result, error) {
	r, err := p.front.wait(p.BatchID)
	if err != nil {
		return nil, err
	}
	for i, e := range r.Errs {
		if e != "" {
			return r.Results, fmt.Errorf("core: batch element %d: %s", i, e)
		}
	}
	return r.Results, nil
}

// Status polls the batch state without blocking.
func (p *PendingBatch) Status() (Status, error) { return p.front.status(p.BatchID) }

// RunBatch executes K parameter bindings of one circuit synchronously
// through a single submit RPC and returns the ordered results.
func (f *Frontend) RunBatch(c *circuit.Circuit, bindings []Bindings, opts RunOptions) ([]*Result, error) {
	pending, err := f.RunBatchAsync(c, bindings, opts)
	if err != nil {
		return nil, err
	}
	return pending.Results()
}

// Capabilities fetches the backend's Table-1 capability row.
func (f *Frontend) Capabilities() (Capabilities, error) {
	var caps Capabilities
	err := f.call("capabilities", nil, &caps)
	return caps, err
}

// SupportsGradients reports whether the selected backend advertises the
// analytic-gradient capability on this frontend's sub-backend selection.
// The capability row is cached on first success — the variational loops
// probe this per solve, not per iteration — while a transient RPC failure
// answers false for this call only and is retried on the next, so one
// dropped capabilities exchange cannot silently pin the frontend to
// derivative-free optimization for its lifetime.
func (f *Frontend) SupportsGradients() bool {
	f.capsMu.Lock()
	defer f.capsMu.Unlock()
	if !f.capsOK {
		caps, err := f.Capabilities()
		if err != nil {
			return false
		}
		f.caps = caps
		f.capsOK = true
	}
	return f.caps.SupportsGradientSub(f.props.Subbackend)
}

// RunGradient evaluates opts.Observable and its analytic gradient for K
// parameter bindings of one symbolic circuit as one grad job: one submit
// and one wait RPC. Per-binding gradients come back ordered, each over the circuit's
// sorted parameter names. The backend must advertise the gradient
// capability (see SupportsGradients).
func (f *Frontend) RunGradient(c *circuit.Circuit, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	if opts.Observable == nil {
		return nil, fmt.Errorf("core: gradient execution requires an observable")
	}
	spec, err := SpecFromParametric(c)
	if err != nil {
		return nil, err
	}
	id, err := f.submit(spec, bindings, opts, opGrad)
	if err != nil {
		return nil, err
	}
	r, err := f.wait(id)
	if err != nil {
		return nil, err
	}
	return r.gradients()
}

// Delete removes a finished task from the QPM.
func (f *Frontend) Delete(taskID string) error {
	return f.call("delete", idMsg{ID: taskID}, nil)
}

// List fetches the QPM's task table.
func (f *Frontend) List() (map[string]Status, error) {
	var m map[string]Status
	err := f.call("list", nil, &m)
	return m, err
}
