// Package core implements the Quantum Framework's orchestration layer — the
// paper's primary contribution. It contains:
//
//   - the standardized circuit/task descriptions exchanged between frontends
//     and backends (CircuitSpec, RunOptions, Result),
//   - the Quantum Platform Manager (QPM): the central dispatcher owning the
//     job queue and lifecycle (submit / status / wait / delete); single
//     runs, batches and gradients are one job type, and the queue is the
//     one tenant-fair, coalescing scheduler for direct and served work,
//   - the Quantum Resource Controller (QRC): the worker threads that launch
//     backend executions across the allocation,
//   - the QFwBackend frontend used by applications, speaking to QPMs over
//     the DEFw RPC layer with synchronous and asynchronous calls,
//   - the batched parametric pipeline (CircuitSpec.Params + Bindings,
//     Frontend.RunBatch, the QPM submit/wait RPCs, BatchExecutor): one
//     symbolic ansatz ships per optimizer iteration instead of N bound
//     copies and is parsed and planned once per ansatz via ParseCache,
//   - the deployment bootstrap (Launch) that reproduces the paper's Fig. 1
//     flow: SLURM heterogeneous job → DVM → QPM services → teardown.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"qfw/internal/circuit"
)

// CircuitSpec is the standardized circuit description every backend QPM
// accepts: OpenQASM 2.0 text plus metadata. Using a serialized exchange
// format (rather than in-memory pointers) keeps the frontend and backends
// decoupled exactly as in the paper.
//
// A spec may be parametric: the QASM then contains symbolic gate angles
// (the affine "coeff*name±const" form) and Params lists their names. A
// parametric spec is shipped once per batch and each execution element
// supplies one Bindings assignment — the optimizer iteration transmits the
// ansatz once instead of N bound copies.
type CircuitSpec struct {
	Name    string   `json:"name,omitempty"`
	NQubits int      `json:"nqubits"`
	QASM    string   `json:"qasm"`
	Params  []string `json:"params,omitempty"`
}

// Bindings assigns concrete values to a parametric spec's symbolic
// parameters; one Bindings per batch element.
type Bindings map[string]float64

// SpecFromCircuit serializes a bound circuit.
func SpecFromCircuit(c *circuit.Circuit) (CircuitSpec, error) {
	qasm, err := c.ToQASM()
	if err != nil {
		return CircuitSpec{}, err
	}
	return CircuitSpec{Name: c.Name, NQubits: c.NQubits, QASM: qasm}, nil
}

// SpecFromParametric serializes a circuit keeping symbolic parameters
// unbound — the wire form of batched execution. Bound circuits are accepted
// too and yield an ordinary (non-parametric) spec.
func SpecFromParametric(c *circuit.Circuit) (CircuitSpec, error) {
	qasm, err := c.ToSymbolicQASM()
	if err != nil {
		return CircuitSpec{}, err
	}
	return CircuitSpec{Name: c.Name, NQubits: c.NQubits, QASM: qasm, Params: c.ParamNames()}, nil
}

// IsParametric reports whether the spec carries unbound symbolic parameters.
func (s CircuitSpec) IsParametric() bool { return len(s.Params) > 0 }

// Hash returns a content digest of the spec, the key of the parsed-circuit
// caches: one ansatz hashes identically across every evaluation that ships
// it, so its QASM parse cost is paid once per ansatz rather than once per
// parameter binding.
func (s CircuitSpec) Hash() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d\x00%s", s.NQubits, s.QASM)))
	return hex.EncodeToString(h[:16])
}

// Circuit parses the spec back into the IR.
func (s CircuitSpec) Circuit() (*circuit.Circuit, error) {
	c, err := circuit.ParseQASM(s.QASM)
	if err != nil {
		return nil, err
	}
	c.Name = s.Name
	return c, nil
}

// RunOptions configure one execution request.
type RunOptions struct {
	Shots      int    `json:"shots,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Subbackend string `json:"subbackend,omitempty"`

	// Placement is the (#N, #P) layout from the paper's secondary x-axes.
	Nodes        int `json:"nodes,omitempty"`
	ProcsPerNode int `json:"procs_per_node,omitempty"`

	// MPS/TN engine knobs.
	MaxBond int     `json:"max_bond,omitempty"`
	Cutoff  float64 `json:"cutoff,omitempty"`

	// Observable, when set, asks the backend to also return the expectation
	// value of this diagonal operator over the final state.
	Observable *Observable `json:"observable,omitempty"`

	// TimeoutMS, when positive, is the per-task deadline in milliseconds,
	// counted from submission (queue wait included). A task that misses it
	// fails with ErrDeadlineExceeded; a hung executor is abandoned and its
	// worker slot freed. Riding RunOptions, the deadline crosses the DEFw
	// RPC boundary with every submission.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ForElement derives the options of one batch element: element i of a batch
// gets a distinct deterministic seed, matching the seed schedule a serial
// loop over the same evaluations would have produced.
func (o RunOptions) ForElement(i int) RunOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Seed += int64(i)
	return o
}

// Timings carries the per-task timing instrumentation QFw unifies across
// backends (milliseconds): the full breakdown of where a request's time
// went, populated layer by layer (serving layer, QPM, retry envelope) and
// carried through the DEFw RPCs so clients see it. TotalMS is maintained
// as the exact sum of the component fields (see Sum), so a breakdown
// always accounts for the whole reported latency.
type Timings struct {
	// CacheLookupMS is the serving layer's content-addressed cache probe.
	CacheLookupMS float64 `json:"cache_lookup_ms,omitempty"`
	// CoalesceWaitMS is the time the admission window held the element:
	// from its enqueue until its job became ready (0 for direct submits,
	// which are ready at once).
	CoalesceWaitMS float64 `json:"coalesce_wait_ms,omitempty"`
	// QueueMS is the time from the job becoming ready until a QRC worker
	// slot picked it up.
	QueueMS float64 `json:"queue_ms"`
	// ExecMS is backend execution time (retry backoff excluded; for
	// batch-native chunks it is the chunk mean, elements share one call).
	ExecMS float64 `json:"exec_ms"`
	// RetryBackoffMS is the total backoff slept between retry attempts.
	RetryBackoffMS float64 `json:"retry_backoff_ms,omitempty"`
	// Attempts counts executor attempts (1 = first try succeeded).
	Attempts int `json:"attempts,omitempty"`
	// CacheHit marks results replayed from the serving layer's result
	// cache or deduplicated onto an identical in-flight execution.
	CacheHit bool    `json:"cache_hit,omitempty"`
	TotalMS  float64 `json:"total_ms"`
}

// Sum returns the component total of the breakdown; the layers populating
// Timings set TotalMS to exactly this, so Sum() == TotalMS holds for every
// served result.
func (t Timings) Sum() float64 {
	return t.CacheLookupMS + t.CoalesceWaitMS + t.QueueMS + t.ExecMS + t.RetryBackoffMS
}

// Result is QFw's unified return format.
type Result struct {
	TaskID     string             `json:"task_id"`
	Backend    string             `json:"backend"`
	Subbackend string             `json:"subbackend,omitempty"`
	Counts     map[string]int     `json:"counts,omitempty"`
	ExpVal     *float64           `json:"expval,omitempty"` // set when an Observable was requested
	TruncErr   float64            `json:"trunc_err,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Route      string             `json:"route,omitempty"` // "backend/sub (rule)" when auto-routed
	Timings    Timings            `json:"timings"`
}

// Status is the lifecycle state of a QPM task.
type Status string

// Task states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// ErrInfeasible marks configurations that exceed the platform budget
// (memory, size caps, walltime). The benchmark harness renders these as the
// paper's red-X missing points rather than failures.
var ErrInfeasible = errors.New("infeasible")

// Infeasible wraps a formatted message with ErrInfeasible.
func Infeasible(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInfeasible, fmt.Sprintf(format, args...))
}

// IsInfeasible detects ErrInfeasible even after the error has crossed an
// RPC boundary and been flattened to a string.
func IsInfeasible(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInfeasible) {
		return true
	}
	return strings.Contains(err.Error(), ErrInfeasible.Error())
}

// ErrDraining marks submissions rejected because the service is shutting
// down gracefully: admission is closed while in-flight work finishes.
var ErrDraining = errors.New("draining: admission closed")

// IsDraining detects ErrDraining even after the error has crossed an RPC
// boundary and been flattened to a string.
func IsDraining(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDraining) {
		return true
	}
	return strings.Contains(err.Error(), ErrDraining.Error())
}

// ErrOverloaded is the typed load-shedding error: the submission was
// rejected because the QPM's queued-element bound or a tenant quota was
// hit. Clients back off and retry instead of growing the queue without
// bound.
var ErrOverloaded = errors.New("overloaded: load shed")

// IsOverloaded detects ErrOverloaded even after the error has crossed an
// RPC boundary and been flattened to a string.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	return strings.Contains(err.Error(), ErrOverloaded.Error())
}

// retryAfterFor sizes the backoff hint a shed carries: deeper queues mean
// longer waits before capacity frees, capped at a quarter second.
func retryAfterFor(depth int) time.Duration {
	return min(time.Duration(1+depth)*time.Millisecond, 250*time.Millisecond)
}

// RetryAfterHint extracts the retry_after_ms hint a shed error carries.
// It works on flattened client-side errors (the hint rides in the message
// exactly so it survives the RPC boundary).
func RetryAfterHint(err error) (time.Duration, bool) {
	if err == nil {
		return 0, false
	}
	msg := err.Error()
	i := strings.Index(msg, "retry_after_ms=")
	if i < 0 {
		return 0, false
	}
	var ms int64
	if _, serr := fmt.Sscanf(msg[i:], "retry_after_ms=%d", &ms); serr != nil || ms < 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// ErrDeadlineExceeded marks tasks that missed their RunOptions.TimeoutMS
// deadline — while queued, mid-execution, or hung in a backend. It is
// permanent by construction: the retry policy never re-attempts it.
var ErrDeadlineExceeded = errors.New("deadline exceeded")

// IsDeadlineExceeded detects ErrDeadlineExceeded even after the error has
// crossed an RPC boundary and been flattened to a string.
func IsDeadlineExceeded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		return true
	}
	return strings.Contains(err.Error(), ErrDeadlineExceeded.Error())
}

// ErrPending marks sub-backends that are integrated but blocked (Table 1's
// "TTN pending" entry); ErrPlanned marks announced-but-unimplemented ones.
var (
	ErrPending = errors.New("sub-backend pending")
	ErrPlanned = errors.New("sub-backend planned")
)

// ExecResult is what a backend executor returns to the QPM, which then
// marshals it into the unified Result.
type ExecResult struct {
	Counts   map[string]int
	ExpVal   *float64
	TruncErr float64
	Extra    map[string]float64
	Route    string
}

// Coupling is one quadratic term of a diagonal observable.
type Coupling struct {
	I int     `json:"i"`
	J int     `json:"j"`
	V float64 `json:"v"`
}

// PauliTerm is one general Pauli-string term: Coeff * P(Ops), with Ops[q]
// in {'I','X','Y','Z'} for qubit q.
type PauliTerm struct {
	Coeff float64 `json:"coeff"`
	Ops   string  `json:"ops"`
}

// Observable is an observable attached to a run request:
// H = Σ Fields[i] Z_i + Σ Couplings V Z_i Z_j + Σ Paulis Coeff·P.
// Diagonal observables (no Paulis) are evaluable on every backend (exactly
// on local simulators, from counts on the cloud path); general Pauli terms
// need a local simulator backend.
type Observable struct {
	Fields    []float64   `json:"fields"`
	Couplings []Coupling  `json:"couplings,omitempty"`
	Paulis    []PauliTerm `json:"paulis,omitempty"`
}

// IsDiagonal reports whether the observable is computational-basis diagonal
// (evaluable from measurement counts alone). Pauli terms containing only I
// and Z still count as diagonal.
func (o *Observable) IsDiagonal() bool {
	for _, t := range o.Paulis {
		for i := 0; i < len(t.Ops); i++ {
			if t.Ops[i] == 'X' || t.Ops[i] == 'Y' {
				return false
			}
		}
	}
	return true
}

// FromCounts estimates <H> from a measurement histogram (the only option
// for hardware and cloud backends).
func (o *Observable) FromCounts(counts map[string]int) float64 {
	var total int
	var acc float64
	for key, n := range counts {
		acc += float64(n) * o.EnergyOfKey(key)
		total += n
	}
	if total == 0 {
		return 0
	}
	return acc / float64(total)
}

// EnergyOfKey evaluates a diagonal observable on one bitstring key (qubit 0
// is the rightmost character; Z|0> = +|0>). Panics on X/Y Pauli terms —
// callers must check IsDiagonal first.
func (o *Observable) EnergyOfKey(key string) float64 {
	return o.diagonalEnergy(func(q int) float64 {
		if key[len(key)-1-q] == '1' {
			return -1
		}
		return 1
	})
}

// EnergyOfIndex evaluates a diagonal observable on a basis-state index
// (bit q of idx is qubit q).
func (o *Observable) EnergyOfIndex(idx int) float64 {
	return o.diagonalEnergy(func(q int) float64 {
		if idx&(1<<uint(q)) != 0 {
			return -1
		}
		return 1
	})
}

func (o *Observable) diagonalEnergy(z func(q int) float64) float64 {
	var e float64
	for i, f := range o.Fields {
		if f != 0 {
			e += f * z(i)
		}
	}
	for _, c := range o.Couplings {
		e += c.V * z(c.I) * z(c.J)
	}
	for _, t := range o.Paulis {
		v := t.Coeff
		for q := 0; q < len(t.Ops); q++ {
			switch t.Ops[q] {
			case 'Z':
				v *= z(q)
			case 'I':
			default:
				panic("core: non-diagonal Pauli term in diagonal evaluation")
			}
		}
		e += v
	}
	return e
}

// Capabilities describes a backend for Table 1.
type Capabilities struct {
	Backend     string   `json:"backend"`
	Subbackends []string `json:"subbackends"`
	CPU         bool     `json:"cpu"`
	GPU         bool     `json:"gpu"`
	NativeMPI   bool     `json:"native_mpi"`
	Gradients   bool     `json:"gradients,omitempty"` // analytic adjoint gradients available
	// GradientSubs lists the sub-backends the gradient capability covers
	// (empty means every sub-backend). Adjoint differentiation needs dense
	// amplitude access, so e.g. aer differentiates on statevector but not
	// on matrix_product_state or stabilizer.
	GradientSubs []string `json:"gradient_subs,omitempty"`
	// DeterministicSeeded declares that an execution with an explicit
	// RunOptions.Seed is a pure function of (spec, bindings, options): the
	// serving layer's exact-hit result cache is only sound on backends that
	// set it. Local simulators qualify; the cloud path does not (its
	// service-side RNG stream is shared across jobs, so counts depend on
	// global submission order, not the request seed).
	DeterministicSeeded bool   `json:"deterministic_seeded,omitempty"`
	Notes               string `json:"notes"`
}

// SupportsGradientSub reports whether the capability row covers analytic
// gradients on the given sub-backend selection ("" means the backend
// default, which gradient-capable backends always honor).
func (c Capabilities) SupportsGradientSub(sub string) bool {
	if !c.Gradients {
		return false
	}
	if len(c.GradientSubs) == 0 || sub == "" {
		return true
	}
	sub = strings.ToLower(strings.TrimSpace(sub))
	for _, s := range c.GradientSubs {
		if s == sub {
			return true
		}
	}
	return false
}

// Executor is the interface a backend QPM implementation provides: accept a
// standardized circuit description with runtime parameters, execute (via
// PRTE/MPI locally or REST remotely), and marshal results into the unified
// format.
type Executor interface {
	Name() string
	Capabilities() Capabilities
	Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error)
}

// BatchExecutor is the optional batch-native extension of Executor: execute
// one parametric spec under a list of parameter bindings and return ordered
// per-element results. Implementations rebind each element into a cached
// parse of the spec, so the QASM parse cost is paid once per ansatz.
// Element i runs with opts.ForElement(i). Executors without it are driven
// through asBatch.
type BatchExecutor interface {
	Executor
	ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error)
}

// asBatch returns exec as a BatchExecutor. A plain executor is wrapped in
// the one bind-and-Execute fallback: each element is bound into the spec's
// parse in cache, re-serialized and executed with opts.ForElement(i).
func asBatch(exec Executor, cache *ParseCache) BatchExecutor {
	if be, ok := exec.(BatchExecutor); ok {
		return be
	}
	return plainBatch{exec, cache}
}

type plainBatch struct {
	Executor
	cache *ParseCache
}

func (p plainBatch) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	base, err := p.cache.Get(spec)
	if err != nil {
		return nil, err
	}
	out := make([]ExecResult, len(bindings))
	for i, b := range bindings {
		elem, err := SpecFromCircuit(base.Bind(b))
		if err == nil {
			out[i], err = p.Execute(elem, opts.ForElement(i))
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GradResult is the unified return of one gradient evaluation: the exact
// expectation value of the attached observable and its partial derivatives
// ordered by the spec's sorted parameter names.
type GradResult struct {
	Value float64   `json:"value"`
	Grad  []float64 `json:"grad"`
}

// GradientExecutor is the optional differentiation extension of Executor:
// evaluate the observable in opts.Observable and its analytic gradient for
// each binding of a parametric spec. Local state-vector backends implement
// it with the adjoint engine (O(gates) per binding, independent of the
// parameter count); backends without simulator-state access advertise
// Capabilities.Gradients=false and clients fall back to parameter-shift
// batches or derivative-free optimization.
type GradientExecutor interface {
	Executor
	ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error)
}
