package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/defw"
	"qfw/internal/mps"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/serve"
	"qfw/internal/statevec"
	"qfw/internal/workloads"
)

// layerMetric is one per-layer metric with the end-to-end metric it should
// move and the workload it should move it on.
type layerMetric struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
}

// layerTable lists every per-layer metric a traced run emits. Metrics of a
// layer the workload's own loop does not reach come from the layer probes
// (or read 0 where the layer has no probe: the serve counters outside
// served_mix and the dqaoa counters outside dqaoa_solve).
var layerTable = []layerMetric{
	{"frontend.encode_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"frontend.outside_qpm_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"frontend.rpcs_per_op", "count", "lower", "req_p50_ms", "request_floor"},
	{"defw.echo_pipe_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"defw.echo_tcp_us", "us", "lower", "req_p50_ms", "served_mix"},
	{"defw.req_bytes_per_op", "B", "lower", "alloc_bytes_per_op", "request_floor"},
	{"defw.resp_bytes_per_op", "B", "lower", "req_p50_ms", "request_floor"},
	{"qpm.queue_ms_p50", "ms", "lower", "req_p90_ms", "served_mix"},
	{"qpm.queue_ms_p90", "ms", "lower", "solve_s", "dqaoa_solve"},
	{"qpm.exec_ms_p50", "ms", "lower", "sweep_s", "scale_motifs"},
	{"qpm.direct_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"qpm.self_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"qpm.parses_per_op", "count", "lower", "req_p50_ms", "request_floor"},
	{"qpm.retries", "count", "lower", "failed_ratio", "request_floor"},
	{"backends.execute_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"backends.plan_us", "us", "lower", "req_p50_ms", "request_floor"},
	{"router.decide_us", "us", "lower", "sweep_s", "scale_motifs"},
	{"router.pred_err_log2", "log2", "lower", "sweep_s", "scale_motifs"},
	{"statevec.run_ms", "ms", "lower", "sweep_s", "scale_motifs"},
	{"statevec.stages", "count", "lower", "sweep_s", "scale_motifs"},
	{"statevec.remaps", "count", "lower", "sweep_s", "scale_motifs"},
	{"statevec.computed_gb_per_s", "GB/s", "higher", "sweep_s", "scale_motifs"},
	{"statevec.grad_ms_per_binding", "ms", "lower", "solve_s", "dqaoa_solve"},
	{"mps.run_ms", "ms", "lower", "sweep_s", "scale_motifs"},
	{"mps.peak_bond", "count", "lower", "sweep_s", "scale_motifs"},
	{"mps.fidelity", "ratio", "higher", "sweep_s", "scale_motifs"},
	{"serve.hit_ratio", "ratio", "higher", "req_p50_ms", "served_mix"},
	{"serve.elems_per_group", "count", "higher", "req_p90_ms", "served_mix"},
	{"serve.coalesce_wait_ms", "ms", "lower", "req_p90_ms", "served_mix"},
	{"serve.cache_lookup_us", "us", "lower", "req_p50_ms", "served_mix"},
	{"serve.direct_us", "us", "lower", "req_p50_ms", "served_mix"},
	{"serve.deduped", "count", "higher", "req_p90_ms", "served_mix"},
	{"serve.shed", "count", "lower", "failed_ratio", "served_mix"},
	{"serve.tenant_skew", "ratio", "lower", "req_p90_ms", "served_mix"},
	{"serve.utilization_pct", "%", "higher", "req_per_s", "served_mix"},
	{"dqaoa.iterations", "count", "lower", "solve_s", "dqaoa_solve"},
	{"dqaoa.sub_solves", "count", "lower", "solve_s", "dqaoa_solve"},
	{"dqaoa.frontend_calls", "count", "lower", "solve_s", "dqaoa_solve"},
	{"dqaoa.circuit_evals", "count", "lower", "solve_s", "dqaoa_solve"},
	{"dqaoa.call_ms_p50", "ms", "lower", "solve_s", "dqaoa_solve"},
	{"dqaoa.in_flight_share", "ratio", "higher", "solve_s", "dqaoa_solve"},
	{"dqaoa.max_concurrent_subqaoa", "count", "higher", "solve_s", "dqaoa_solve"},
	{"go.gc_cycles_per_op", "count", "lower", "req_p90_ms", "request_floor"},
	{"go.cpu_ms_per_op", "ms", "lower", "req_per_s", "request_floor"},
	{"trace.overhead_pct", "%", "lower", "req_p50_ms", "request_floor"},
}

// layerWindow is the measured window's process-wide counters.
type layerWindow struct {
	ops    float64
	cpu    time.Duration
	gc     float64
	parses float64
}

// serveDelta is the serving layer's counters over the measured window.
type serveDelta struct {
	hits, misses, deduped, shed, groups, elems int64
	tenantSkew, utilizationPct                 float64
}

// layerMetrics assembles every per-layer metric from the traced passes and
// the layer probes.
func (h *harness) layerMetrics(win layerWindow) map[string]metric {
	p := h.runProbes()
	l := &h.s.layer
	ops := float64(max(l.ops, 1))
	v := map[string]float64{
		"frontend.encode_us":           orElse(median(l.encodeUS), p.encodeUS),
		"frontend.outside_qpm_us":      median(l.outsideUS),
		"frontend.rpcs_per_op":         float64(l.rpcs) / ops,
		"defw.echo_pipe_us":            p.echoPipeUS,
		"defw.echo_tcp_us":             p.echoTCPUS,
		"defw.req_bytes_per_op":        float64(l.reqBytes) / ops,
		"defw.resp_bytes_per_op":       float64(l.respBytes) / ops,
		"qpm.queue_ms_p50":             quantile(l.queueMS, 0.5),
		"qpm.queue_ms_p90":             quantile(l.queueMS, 0.9),
		"qpm.exec_ms_p50":              quantile(l.execMS, 0.5),
		"qpm.direct_us":                p.qpmDirectUS,
		"qpm.self_us":                  p.qpmDirectUS - p.executeUS,
		"qpm.parses_per_op":            win.parses / win.ops,
		"qpm.retries":                  float64(l.retries),
		"backends.execute_us":          p.executeUS,
		"backends.plan_us":             p.planUS,
		"router.decide_us":             p.decideUS,
		"router.pred_err_log2":         median(append(append([]float64(nil), l.predErr...), p.predErr...)),
		"statevec.run_ms":              p.svRunMS,
		"statevec.stages":              p.stages,
		"statevec.remaps":              p.remaps,
		"statevec.computed_gb_per_s":   p.gbPerS,
		"statevec.grad_ms_per_binding": p.gradMS,
		"mps.run_ms":                   p.mpsRunMS,
		"mps.peak_bond":                p.mpsPeakBond,
		"mps.fidelity":                 p.mpsFidelity,
		"serve.coalesce_wait_ms":       median(l.coalesceMS),
		"serve.cache_lookup_us":        orElse(median(l.cacheLookupUS), p.serveLookupUS),
		"serve.direct_us":              p.serveDirectUS,
		"go.gc_cycles_per_op":          win.gc / win.ops,
		"go.cpu_ms_per_op":             float64(win.cpu) / float64(time.Millisecond) / win.ops,
	}
	if sd := l.serve; sd != nil {
		v["serve.hit_ratio"] = float64(sd.hits) / float64(max(sd.hits+sd.misses, 1))
		v["serve.elems_per_group"] = float64(sd.elems) / float64(max(sd.groups, 1))
		v["serve.deduped"] = float64(sd.deduped)
		v["serve.shed"] = float64(sd.shed)
		v["serve.tenant_skew"] = sd.tenantSkew
		v["serve.utilization_pct"] = sd.utilizationPct
	}
	if d := l.dq; d.solves > 0 {
		n := float64(d.solves)
		v["dqaoa.iterations"] = float64(d.iterations) / n
		v["dqaoa.sub_solves"] = float64(d.subSolves) / n
		v["dqaoa.frontend_calls"] = float64(d.calls) / n
		v["dqaoa.circuit_evals"] = float64(d.evals) / n
		v["dqaoa.call_ms_p50"] = median(d.callMS)
		v["dqaoa.in_flight_share"] = mean(d.inFlightShare)
		v["dqaoa.max_concurrent_subqaoa"] = mean(d.maxConcurrent)
	}
	traced, untraced := h.s.latTraced.quantile(0.5), h.s.lat.quantile(0.5)
	if untraced > 0 {
		v["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	}
	h.note("tracing overhead: traced req_p50_ms %.6g (n=%d) vs untraced %.6g (n=%d)",
		traced, h.s.latTraced.n(), untraced, h.s.lat.n())
	out := make(map[string]metric, len(layerTable))
	for _, m := range layerTable {
		out[m.Name] = metric{Value: v[m.Name], Unit: m.Unit}
	}
	return out
}

func orElse(x, fallback float64) float64 {
	if x != 0 {
		return x
	}
	return fallback
}

// probeResults are the direct, in-process measurements of single layers.
type probeResults struct {
	encodeUS, echoPipeUS, echoTCPUS     float64
	qpmDirectUS, executeUS, parsesPerOp float64
	planUS, decideUS                    float64
	predErr                             []float64
	svRunMS, stages, remaps, gbPerS     float64
	gradMS                              float64
	mpsRunMS, mpsPeakBond, mpsFidelity  float64
	serveDirectUS, serveLookupUS        float64
}

// timed runs fn at least minReps times and until budget is spent, and
// returns the median duration in microseconds.
func timed(minReps int, budget time.Duration, fn func() error) (float64, error) {
	var us []float64
	start := time.Now()
	for i := 0; i < minReps || (time.Since(start) < budget && i < 2000); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

// runProbes measures each layer directly: a bare DEFw echo, in-process
// QPM Submit+Wait, the executor, fusion planning, the router, the dense,
// gradient and MPS engines, and in-process serve.Server.Exec. A probe
// that fails is reported as a failed check and reads 0.
func (h *harness) runProbes() probeResults {
	var p probeResults
	fail := func(name string, err error) {
		if err != nil {
			h.check("probe_"+name, false)
			h.note("probe %s: %v", name, err)
		}
	}
	fail("defw", p.echo())
	fail("layers", h.probeLayers(&p))
	fail("grad", h.probeGrad(&p))
	fail("mps", p.probeMPS())
	fail("serve", h.probeServe(&p))
	return p
}

func (p *probeResults) echo() error {
	srv := defw.NewServer()
	defer srv.Close()
	srv.Register("bench.echo", defw.HandlerFunc(func(_ string, payload []byte) ([]byte, error) { return payload, nil }))
	payload := []byte(`{"pad":"` + strings.Repeat("x", 54) + `"}`) // 64 bytes of JSON
	pipe := defw.NewPipeClient(srv)
	defer pipe.Close()
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	tcp, err := defw.Dial(addr)
	if err != nil {
		return err
	}
	defer tcp.Close()
	call := func(c *defw.Client) func() error {
		return func() error { _, err := c.Call("bench.echo", "echo", payload); return err }
	}
	if p.echoPipeUS, err = timed(200, 300*time.Millisecond, call(pipe)); err != nil {
		return err
	}
	p.echoTCPUS, err = timed(200, 300*time.Millisecond, call(tcp))
	return err
}

// probeLayers measures the frontend encode, QPM, executor, planner,
// router and dense-engine layers on the workload's probe circuits.
func (h *harness) probeLayers(p *probeResults) error {
	probes := h.w.probes()
	workers := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(h.opts.seed))
	var enc, direct, exec, plan, decide, svRun, stages, remaps []float64
	var bytesMoved, svSeconds float64
	for _, m := range probes {
		spec, err := core.SpecFromCircuit(m.circ)
		if err != nil {
			return err
		}
		opts := m.opts(h.opts.seed*13 + 1)
		us, err := timed(5, 100*time.Millisecond, func() error { _, err := core.SpecFromCircuit(m.circ); return err })
		if err != nil {
			return err
		}
		enc = append(enc, us)
		q := h.sess.QPM(m.backend)
		us, err = timed(5, 200*time.Millisecond, func() error {
			id, err := q.Submit(spec, opts)
			if err != nil {
				return err
			}
			_, err = q.Wait(id)
			return err
		})
		if err != nil {
			return fmt.Errorf("qpm %s: %w", m.name, err)
		}
		direct = append(direct, us)
		ex := h.sess.Executor(m.backend)
		us, err = timed(5, 200*time.Millisecond, func() error { _, err := ex.Execute(spec, opts); return err })
		if err != nil {
			return fmt.Errorf("execute %s: %w", m.name, err)
		}
		exec = append(exec, us)
		us, _ = timed(5, 100*time.Millisecond, func() error { circuit.PlanFusion(m.circ).Compile(m.circ); return nil })
		plan = append(plan, us)
		auto := h.sess.Auto()
		us, err = timed(5, 100*time.Millisecond, func() error { _, err := auto.Decide(spec, 1); return err })
		if err != nil {
			return fmt.Errorf("decide %s: %w", m.name, err)
		}
		decide = append(decide, us)
		res, err := auto.Execute(spec, opts)
		if err != nil {
			return fmt.Errorf("auto %s: %w", m.name, err)
		}
		if pr, ac := res.Extra["auto_predicted_ms"], res.Extra["auto_actual_ms"]; pr > 0 && ac > 0 {
			p.predErr = append(p.predErr, math.Abs(math.Log2(ac/pr)))
		}

		c := unmeasured(m.circ)
		fp := circuit.PlanFusion(c)
		us, _ = timed(3, 200*time.Millisecond, func() error {
			st, _ := statevec.RunFused(c, fp, workers, rng)
			st.Release()
			return nil
		})
		svRun = append(svRun, us/1000)
		nOps := len(fp.Compile(c).Ops)
		sweeps := float64(nOps)
		if sched, err := circuit.PlanTileStages(fp, c, statevec.CurrentTuning().TileBitsFor(c.NQubits)); err == nil {
			st, rm, _ := statevec.StageStats(sched, nOps)
			stages, remaps = append(stages, float64(st)), append(remaps, float64(rm))
			if c.NQubits >= statevec.CurrentTuning().MinQubits {
				sweeps = float64(st + rm)
			}
		}
		// Computed traffic: every sweep reads and writes 2^n complex128.
		bytesMoved += sweeps * math.Ldexp(32, c.NQubits)
		svSeconds += us / 1e6
	}
	p.encodeUS, p.qpmDirectUS, p.executeUS = median(enc), median(direct), median(exec)
	p.planUS, p.decideUS, p.svRunMS = median(plan), median(decide), median(svRun)
	p.stages, p.remaps = median(stages), median(remaps)
	if svSeconds > 0 {
		p.gbPerS = bytesMoved / svSeconds / 1e9
	}
	return nil
}

// probeGrad times the adjoint gradient engine on a 16-qubit QAOA
// sub-ansatz, four bindings per batch as a DQAOA population step sends.
func (h *harness) probeGrad(p *probeResults) error {
	rng := rand.New(rand.NewSource(h.opts.seed))
	q := qubo.Metamaterial(16, rng)
	ham, _ := q.CostHamiltonian()
	plan := circuit.PlanFusionGrad(qaoa.BuildAnsatz(ham, 1))
	obs := qaoa.ObservableFromQUBO(q)
	bindings := make([]map[string]float64, 4)
	for i := range bindings {
		bindings[i] = qaoa.BindParams([]float64{rng.Float64(), rng.Float64()})
	}
	us, err := timed(3, 300*time.Millisecond, func() error {
		_, err := statevec.GradientAdjointBatch(plan, bindings, statevec.GradObs{Diag: obs.EnergyOfIndex}, runtime.GOMAXPROCS(0))
		return err
	})
	p.gradMS = us / 1000 / float64(len(bindings))
	return err
}

// probeMPS runs the compiled MPS engine on TFIM-64 (8 steps) at MaxBond 32.
func (p *probeResults) probeMPS() error {
	cc, err := mps.CompileCircuit(workloads.TFIM(64, 8, 0, 0))
	if err != nil {
		return err
	}
	opt := mps.Options{MaxBond: 32, Workers: runtime.GOMAXPROCS(0)}
	us, err := timed(3, 300*time.Millisecond, func() error {
		m, err := cc.Execute(nil, opt)
		if err != nil {
			return err
		}
		p.mpsPeakBond, p.mpsFidelity = float64(m.PeakBond()), m.Fidelity()
		m.Release()
		return nil
	})
	p.mpsRunMS = us / 1000
	return err
}

// probeServe times in-process serve.Server.Exec on cache hits of the
// probe circuits, the path most served requests take: each seeded request
// misses once untimed, then repeats.
func (h *harness) probeServe(p *probeResults) error {
	probes := h.w.probes()
	srv := serve.New(h.sess.QPM(probes[0].backend), serve.Config{CacheCap: 4096, Window: 2 * time.Millisecond}, h.sess.Rec)
	defer srv.Close()
	var direct, lookup []float64
	for i, m := range probes {
		spec, err := core.SpecFromCircuit(m.circ)
		if err != nil {
			return err
		}
		opts := m.opts(int64(1_000_000 + i))
		exec := func() (*core.Result, error) {
			res, errs, _, err := srv.Exec("probe", spec, nil, opts)
			if err == nil && errs[0] != "" {
				err = fmt.Errorf("serve exec %s: %s", m.name, errs[0])
			}
			if err != nil {
				return nil, err
			}
			return res[0], nil
		}
		if _, err := exec(); err != nil {
			return err
		}
		us, err := timed(50, 100*time.Millisecond, func() error {
			res, err := exec()
			if err == nil {
				lookup = append(lookup, res.Timings.CacheLookupMS*1000)
			}
			return err
		})
		if err != nil {
			return err
		}
		direct = append(direct, us)
	}
	p.serveDirectUS, p.serveLookupUS = median(direct), median(lookup)
	return nil
}
