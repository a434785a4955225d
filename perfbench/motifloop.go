package main

import (
	"fmt"
	"math"
	"time"

	"qfw/internal/core"
	"qfw/internal/defw"
	"qfw/internal/workloads"
)

// motifLoop is a closed loop of one client calling Frontend.Run over a
// fixed motif list, one pass per sweep of the list, with a fresh seed per
// request. request_floor and scale_motifs are both motif loops.
type motifLoop struct {
	reason  string
	motifs  []motif
	seeds   *seedStream
	fronts  map[string]*core.Frontend // by backend/sub, over the session endpoint
	tapped  map[string]*core.Frontend // the same, over the benchmark's tap server
	taps    map[string]*rpcTap        // by backend
	tapSrv  *defw.Server
	probs   [][]float64       // exact distributions; nil where none is affordable
	replay  int64             // the seed of the fixed replay request
	digests []string          // replay digests: session frontend, direct QPM, end of run
	routes  map[string]string // auto-routed motif -> the route it took
}

func newRequestFloor(seed int64) workload {
	return &motifLoop{
		reason: "the sub-QUBO request floor: n=8 motifs, 64 shots, pipe transport; codec, transport, QPM and planning dominate, kernels do not",
		motifs: motifSet(8),
		seeds:  newSeedStream(seed, 0),
		replay: seed*31 + 7,
	}
}

func newScaleMotifs(seed int64) workload {
	tfim96 := workloads.TFIM(96, 4, 0, 0)
	return &motifLoop{
		reason: "paper Fig. 3 motifs at scale: staged AVX2 kernels at n=20, the MPS engine at n=64/96, and the router on ring-QAOA-48",
		motifs: []motif{
			{name: "ghz-20", circ: workloads.GHZ(20), backend: "nwqsim", sub: "OpenMP", shots: 256, ghz: true},
			{name: "hamsim-20", circ: workloads.HamSim(20, 2), backend: "nwqsim", sub: "OpenMP", shots: 256},
			{name: "tfim-20", circ: workloads.TFIM(20, 4, 0, 0), backend: "nwqsim", sub: "OpenMP", shots: 256},
			{name: "tfim-64", circ: workloads.TFIM(64, 8, 0, 0), backend: "aer", sub: "matrix_product_state", shots: 256, maxBond: 32},
			{name: "tfim-96", circ: tfim96, backend: "aer", sub: "matrix_product_state", shots: 256, maxBond: 32},
			{name: "qaoa-ring-48", circ: workloads.RingQAOA(48, 2), backend: "auto", shots: 256},
		},
		seeds:  newSeedStream(seed, 0),
		replay: seed*31 + 7,
	}
}

func (w *motifLoop) why() string         { return w.reason }
func (w *motifLoop) config() core.Config { return core.Config{} }

func frontKey(backend, sub string) string { return backend + "/" + sub }

func (w *motifLoop) connect(s *core.Session) error {
	w.fronts = map[string]*core.Frontend{}
	for _, m := range w.motifs {
		key := frontKey(m.backend, m.sub)
		if w.fronts[key] != nil {
			continue
		}
		f, err := s.Frontend(core.Properties{Backend: m.backend, Subbackend: m.sub})
		if err != nil {
			return err
		}
		w.fronts[key] = f
	}
	return nil
}

func (w *motifLoop) prepare(h *harness) error {
	w.routes = map[string]string{}
	w.probs = make([][]float64, len(w.motifs))
	for i, m := range w.motifs {
		if m.circ.NQubits <= 20 {
			w.probs[i] = exactProbs(m.circ)
		}
	}
	if h.tr != nil {
		w.tapSrv = defw.NewServer()
		w.taps = map[string]*rpcTap{}
		for _, m := range w.motifs {
			if w.taps[m.backend] == nil {
				tap := &rpcTap{inner: h.sess.QPM(m.backend), h: h, tr: h.tr}
				w.taps[m.backend] = tap
				w.tapSrv.Register(core.ServiceName(m.backend), tap)
			}
		}
		client := defw.NewPipeClient(w.tapSrv)
		w.tapped = map[string]*core.Frontend{}
		for key, f := range w.fronts {
			tf, err := core.NewFrontend(client, f.Properties())
			if err != nil {
				return err
			}
			w.tapped[key] = tf
		}
	}
	m := w.motifs[0]
	res, err := w.fronts[frontKey(m.backend, m.sub)].Run(m.circ, m.opts(w.replay))
	if err != nil {
		return fmt.Errorf("replay request: %w", err)
	}
	w.digests = append(w.digests, countsDigest(res.Counts))
	spec, err := core.SpecFromCircuit(m.circ)
	if err != nil {
		return err
	}
	q := h.sess.QPM(m.backend)
	id, err := q.Submit(spec, m.opts(w.replay))
	if err != nil {
		return fmt.Errorf("direct replay: %w", err)
	}
	direct, err := q.Wait(id)
	if err != nil {
		return fmt.Errorf("direct replay: %w", err)
	}
	w.digests = append(w.digests, countsDigest(direct.Counts))
	// Warm-up: plan caches, pools and the Go heap reach steady state.
	warm := newSeedStream(-1, 0)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		for _, m := range w.motifs {
			f := w.fronts[frontKey(m.backend, m.sub)]
			res, err := f.Run(m.circ, m.opts(warm.next()))
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", m.name, err)
			}
			if err := f.Delete(res.TaskID); err != nil {
				return fmt.Errorf("warm-up %s: %w", m.name, err)
			}
		}
	}
	return nil
}

func (w *motifLoop) pass(h *harness, tr *tracer) error {
	for i, m := range w.motifs {
		seed := w.seeds.next()
		key := frontKey(m.backend, m.sub)
		if tr == nil {
			t0 := time.Now()
			res, err := w.fronts[key].Run(m.circ, m.opts(seed))
			lat := msSince(t0)
			h.op(m.name, lat, false, err != nil || !w.checkResult(h, i, res))
			w.release(h, w.fronts[key], res)
			continue
		}
		req := tr.id()
		t0 := time.Now()
		e0 := time.Now()
		_, encErr := core.SpecFromCircuit(m.circ)
		e1 := time.Now()
		tr.add(req, req, "frontend.encode", e0, e1)
		call := tr.id()
		w.taps[m.backend].ctx.set(call, req)
		c0 := time.Now()
		res, err := w.tapped[key].Run(m.circ, m.opts(seed))
		c1 := time.Now()
		tr.record(call, req, req, "frontend.run", c0, c1)
		ok := err == nil && encErr == nil && w.checkResult(h, i, res)
		k1 := time.Now()
		tr.add(req, req, "bench.check", c1, k1)
		del := tr.id()
		w.taps[m.backend].ctx.set(del, req)
		w.release(h, w.tapped[key], res)
		tr.record(del, req, req, "frontend.delete", k1, time.Now())
		tr.record(req, 0, req, "op:"+m.name, t0, time.Now())
		lat := float64(c1.Sub(c0)) / float64(time.Millisecond)
		h.op(m.name, lat, true, !ok)
		if ok {
			h.layer(func(l *layerSamples) {
				l.ops++
				l.encodeUS = append(l.encodeUS, float64(e1.Sub(e0))/float64(time.Microsecond))
				l.addResult(res, lat)
			})
		}
	}
	return nil
}

// release deletes a finished task, as a long-running client must: the
// QPM keeps every task until it is deleted.
func (w *motifLoop) release(h *harness, f *core.Frontend, res *core.Result) {
	if res != nil {
		h.check("task_deleted", f.Delete(res.TaskID) == nil)
	}
}

// checkResult runs motif i's output checks and records its quality.
func (w *motifLoop) checkResult(h *harness, i int, res *core.Result) bool {
	m := w.motifs[i]
	ok := h.checkSampled(m, res)
	if fid, isMPS := res.Extra["mps_fidelity"]; isMPS {
		ok = h.check("mps_fidelity_ge_0.99", fid >= 0.99) && ok
	}
	if w.probs[i] != nil {
		h.addQuality(sampleFidelity(res.Counts, w.probs[i]))
	}
	if res.Route != "" && w.routes[m.name] == "" {
		h.s.mu.Lock()
		w.routes[m.name] = res.Route
		h.s.mu.Unlock()
	}
	return ok
}

func (w *motifLoop) finish(h *harness) error {
	m := w.motifs[0]
	res, err := w.fronts[frontKey(m.backend, m.sub)].Run(m.circ, m.opts(w.replay))
	if err != nil {
		return fmt.Errorf("replay request: %w", err)
	}
	w.digests = append(w.digests, countsDigest(res.Counts))
	h.check("replay_digest", w.digests[0] == w.digests[1] && w.digests[0] == w.digests[2])
	h.note("replay %s seed %d digest %v", m.name, w.replay, w.digests)
	for name, route := range w.routes {
		h.note("route %s: %s", name, route)
	}
	return nil
}

func (w *motifLoop) probes() []motif {
	var out []motif
	for _, m := range w.motifs {
		if m.backend != "auto" && m.sub != "matrix_product_state" {
			out = append(out, m)
		}
	}
	return out
}

func (w *motifLoop) close() {
	if w.tapSrv != nil {
		w.tapSrv.Close()
	}
}

// layerSamples are the per-layer counters the traced passes collect.
type layerSamples struct {
	ops       int64 // traced client requests
	rpcs      int64
	reqBytes  int64
	respBytes int64

	encodeUS      []float64
	outsideUS     []float64
	queueMS       []float64
	execMS        []float64
	retries       int64
	predErr       []float64
	cacheLookupUS []float64
	coalesceMS    []float64

	serve *serveDelta // served_mix only
	dq    dqaoaSamples
}

// addResult folds one traced request's result into the samples: the
// client time outside the QPM, the QPM's queue and execution times, its
// retries, and the router's prediction error when auto-routed.
func (l *layerSamples) addResult(res *core.Result, latMS float64) {
	t := res.Timings
	l.outsideUS = append(l.outsideUS, (latMS-t.TotalMS)*1000)
	if !t.CacheHit {
		l.queueMS = append(l.queueMS, t.QueueMS)
		l.execMS = append(l.execMS, t.ExecMS)
		l.coalesceMS = append(l.coalesceMS, t.CoalesceWaitMS)
	}
	l.cacheLookupUS = append(l.cacheLookupUS, t.CacheLookupMS*1000)
	if t.Attempts > 1 {
		l.retries += int64(t.Attempts - 1)
	}
	if p, a := res.Extra["auto_predicted_ms"], res.Extra["auto_actual_ms"]; p > 0 && a > 0 {
		l.predErr = append(l.predErr, math.Abs(math.Log2(a/p)))
	}
}
