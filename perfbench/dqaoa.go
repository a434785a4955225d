package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/defw"
	"qfw/internal/dqaoa"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/trace"
)

// dqaoaInstances is how many seeded instances a run cycles through:
// solution quality varies from instance to instance, so it is averaged
// over several.
const dqaoaInstances = 4

// dqaoaSolve runs the paper's Fig. 4 configuration 40:(16,4) through the
// Frontend on nwqsim/OpenMP, cycling through seeded instances.
type dqaoaSolve struct {
	qs     []*qubo.QUBO
	cfgs   []dqaoa.Config
	next   int // solves started
	front  *core.Frontend
	tapped *core.Frontend
	tap    *rpcTap
	tapSrv *defw.Server
	refs   []*dqaoa.Result // each instance's first solve: later solves must match it
}

func newDQAOASolve(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &dqaoaSolve{refs: make([]*dqaoa.Result, dqaoaInstances)}
	for i := 0; i < dqaoaInstances; i++ {
		w.qs = append(w.qs, qubo.Metamaterial(40, rng))
		w.cfgs = append(w.cfgs, dqaoa.Config{
			SubQSize: 16, NSubQ: 4, MaxIter: 3, Patience: 3, MaxEvals: 15,
			Async: true, Shots: 256, Seed: rng.Int63n(1<<30) + 1,
		})
	}
	return w
}

func (w *dqaoaSolve) why() string {
	return "the hybrid application's time to solution: DQAOA 40:(16,4) with Adam over adjoint gradients on nwqsim/OpenMP"
}

func (w *dqaoaSolve) config() core.Config { return core.Config{} }

func (w *dqaoaSolve) connect(s *core.Session) error {
	f, err := s.Frontend(core.Properties{Backend: "nwqsim", Subbackend: "OpenMP"})
	w.front = f
	return err
}

func (w *dqaoaSolve) prepare(h *harness) error {
	if h.tr != nil {
		w.tapSrv = defw.NewServer()
		w.tap = &rpcTap{inner: h.sess.QPM("nwqsim"), h: h, tr: h.tr}
		w.tapSrv.Register(core.ServiceName("nwqsim"), w.tap)
		f, err := core.NewFrontend(defw.NewPipeClient(w.tapSrv), w.front.Properties())
		if err != nil {
			return err
		}
		w.tapped = f
	}
	// Warm-up: one small sub-QAOA through the same path.
	sub := qubo.Metamaterial(16, rand.New(rand.NewSource(-1)))
	_, err := qaoa.Solve(sub, w.front, qaoa.Options{P: 1, Shots: 256, MaxEvals: 6, Seed: 1})
	return err
}

// callRec is one Frontend call a solve made.
type callRec struct {
	start, end time.Time
	evals      int
}

// countingRunner wraps the Frontend as the solve's qaoa.Runner: it times
// and counts every call and checks every sampled result, and when traced
// records a span per call under the solve's span.
type countingRunner struct {
	f      *core.Frontend
	h      *harness
	tr     *tracer
	parent int64

	mu    sync.Mutex
	calls []callRec
}

func (r *countingRunner) done(start time.Time, evals, shots int, name string, err error, results []*core.Result) {
	end := time.Now()
	ok := err == nil
	for _, res := range results {
		if res == nil {
			ok = false
			continue
		}
		total := 0
		for _, n := range res.Counts {
			total += n
		}
		ok = r.h.check("counts_sum_to_shots", shots == 0 || total == shots) && ok
		ok = r.h.checkTimings(res) && ok
	}
	lat := float64(end.Sub(start)) / float64(time.Millisecond)
	r.h.op(name, lat, r.tr != nil, !ok)
	r.mu.Lock()
	r.calls = append(r.calls, callRec{start: start, end: end, evals: evals})
	r.mu.Unlock()
	if r.tr == nil || !ok {
		return
	}
	r.tr.add(r.parent, r.parent, name, start, end)
	r.h.layer(func(l *layerSamples) {
		l.ops++
		for _, res := range results {
			l.addResult(res, lat)
		}
	})
}

func (r *countingRunner) Run(c *circuit.Circuit, opts core.RunOptions) (*core.Result, error) {
	t0 := time.Now()
	res, err := r.f.Run(c, opts)
	r.done(t0, 1, opts.Shots, "qaoa.run", err, []*core.Result{res})
	return res, err
}

func (r *countingRunner) RunBatch(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, error) {
	t0 := time.Now()
	res, err := r.f.RunBatch(c, bindings, opts)
	r.done(t0, len(bindings), opts.Shots, "qaoa.run_batch", err, res)
	return res, err
}

func (r *countingRunner) RunGradient(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error) {
	t0 := time.Now()
	res, err := r.f.RunGradient(c, bindings, opts)
	r.done(t0, len(bindings), 0, "qaoa.run_gradient", err, nil)
	return res, err
}

func (r *countingRunner) SupportsGradients() bool { return r.f.SupportsGradients() }

// inFlight is the length of the union of the call intervals.
func (r *countingRunner) inFlight() time.Duration {
	calls := append([]callRec(nil), r.calls...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for _, c := range calls {
		if c.start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = c.start, c.end
			continue
		}
		if c.end.After(curE) {
			curE = c.end
		}
	}
	return total + curE.Sub(curS)
}

// dqaoaSamples are the traced solves' counters.
type dqaoaSamples struct {
	solves        int
	iterations    int
	subSolves     int
	calls         int
	evals         int
	callMS        []float64
	inFlightShare []float64
	maxConcurrent []float64
}

func (w *dqaoaSolve) pass(h *harness, tr *tracer) error {
	inst := w.next % dqaoaInstances
	w.next++
	q, cfg := w.qs[inst], w.cfgs[inst]
	runner := &countingRunner{f: w.front, h: h}
	var rec *trace.Recorder
	if tr != nil {
		runner.f, runner.tr, runner.parent = w.tapped, tr, tr.id()
		w.tap.ctx.set(runner.parent, runner.parent)
		rec = trace.NewRecorder()
		cfg.Recorder = rec
	}
	t0 := time.Now()
	res, err := dqaoa.Solve(q, runner, cfg)
	wall := time.Since(t0)
	if err != nil {
		h.check("dqaoa_solve_ok", false)
		h.fail()
		return nil
	}
	ok := h.check("dqaoa_energy_matches_bits", q.Energy(res.Bits) == res.Energy)
	if w.refs[inst] == nil {
		w.refs[inst] = res
	}
	ref := w.refs[inst]
	ok = h.check("solve_quality_matches_reference", res.Quality == ref.Quality && res.Energy == ref.Energy) && ok
	if !ok {
		h.fail()
	}
	if tr == nil {
		h.addSolve(wall, res.Iterations)
		return nil
	}
	tr.record(runner.parent, 0, runner.parent, "dqaoa.solve", t0, t0.Add(wall))
	h.layer(func(l *layerSamples) {
		d := &l.dq
		d.solves++
		d.iterations += res.Iterations
		d.subSolves += res.SubSolves
		d.calls += len(runner.calls)
		for _, c := range runner.calls {
			d.evals += c.evals
			d.callMS = append(d.callMS, float64(c.end.Sub(c.start))/float64(time.Millisecond))
		}
		d.inFlightShare = append(d.inFlightShare, float64(runner.inFlight())/float64(wall))
		d.maxConcurrent = append(d.maxConcurrent, float64(rec.MaxConcurrency("subqaoa")))
	})
	return nil
}

// finish records each solved instance's quality once, so instances
// solved more often do not weigh more.
func (w *dqaoaSolve) finish(h *harness) error {
	for i, ref := range w.refs {
		if ref == nil {
			continue
		}
		h.addQuality(ref.Quality)
		h.note("instance %d: energy %.9g quality %.6g iterations %d sub-solves %d",
			i, ref.Energy, ref.Quality, ref.Iterations, ref.SubSolves)
	}
	if w.refs[0] == nil {
		return fmt.Errorf("no solve completed")
	}
	return nil
}

// probes runs the dense probes on one bound 16-qubit sub-ansatz, the size
// every DQAOA sub-problem has.
func (w *dqaoaSolve) probes() []motif {
	return []motif{{name: "subqaoa-16", circ: subAnsatz(w.qs[0]), backend: "nwqsim", sub: "OpenMP", shots: 256}}
}

// subAnsatz binds a p=1 QAOA ansatz over the first 16 variables of q.
func subAnsatz(q *qubo.QUBO) *circuit.Circuit {
	vars := make([]int, 16)
	for i := range vars {
		vars[i] = i
	}
	sub := q.SubQUBO(vars, make([]int, q.N))
	ham, _ := sub.CostHamiltonian()
	return qaoa.BuildAnsatz(ham, 1).Bind(qaoa.BindParams([]float64{0.4, 0.7}))
}

func (w *dqaoaSolve) close() {
	if w.tapSrv != nil {
		w.tapSrv.Close()
	}
}
