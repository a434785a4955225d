package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/defw"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/serve"
	"qfw/internal/statevec"
)

// Served-mix shape: per client round, 12 hot-set repeats, 3 fresh-seed
// sampled runs and 5 analytic QAOA queries (60/15/25 %).
const (
	mixTenants  = 2
	mixHotKeys  = 64
	mixHot      = 12
	mixFresh    = 3
	mixAnalytic = 5
)

type mixKind int

const (
	mixKindHot mixKind = iota
	mixKindFresh
	mixKindAnalytic
)

var mixKindNames = [...]string{"hot", "fresh", "analytic"}

// mixReq is one generated request of the served mix.
type mixReq struct {
	kind    mixKind
	motif   int
	seed    int64
	binding core.Bindings
}

// hotKey is one (motif, seed) pair of the warmed hot set.
type hotKey struct {
	motif int
	seed  int64
}

// mixInputs are the served mix's generated inputs.
type mixInputs struct {
	motifs []motif
	hot    []hotKey
	qubo   *qubo.QUBO
	ansatz *circuit.Circuit // symbolic QAOA-10 p=2
	obs    *core.Observable
	rngs   [mixTenants]*rand.Rand // per-client request schedule
}

func newMixInputs(seed int64) *mixInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &mixInputs{motifs: motifSet(10)}
	for i := 0; i < mixHotKeys; i++ {
		in.hot = append(in.hot, hotKey{motif: i % len(in.motifs), seed: rng.Int63n(1<<40) + 1})
	}
	in.qubo = qubo.Metamaterial(10, rng)
	h, _ := in.qubo.CostHamiltonian()
	in.ansatz = qaoa.BuildAnsatz(h, 2)
	in.obs = qaoa.ObservableFromQUBO(in.qubo)
	for c := range in.rngs {
		in.rngs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 101))
	}
	return in
}

// round generates one client's next round of the mix, shuffled.
func (in *mixInputs) round(client int) []mixReq {
	rng := in.rngs[client]
	reqs := make([]mixReq, 0, mixHot+mixFresh+mixAnalytic)
	for i := 0; i < mixHot; i++ {
		k := in.hot[rng.Intn(len(in.hot))]
		reqs = append(reqs, mixReq{kind: mixKindHot, motif: k.motif, seed: k.seed})
	}
	for i := 0; i < mixFresh; i++ {
		reqs = append(reqs, mixReq{kind: mixKindFresh, motif: rng.Intn(len(in.motifs)), seed: rng.Int63n(1<<40) + 1})
	}
	for i := 0; i < mixAnalytic; i++ {
		params := make([]float64, 4)
		for j := range params {
			params[j] = rng.Float64() * math.Pi
		}
		reqs = append(reqs, mixReq{kind: mixKindAnalytic, binding: core.Bindings(qaoa.BindParams(params))})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// analyticAnswer is one analytic reply kept for the end-of-run check.
type analyticAnswer struct {
	binding core.Bindings
	expval  float64
}

// servedMix is two tenants calling serve.Client over TCP loopback, the
// qfwd deployment path with qfwd's default serving configuration.
type servedMix struct {
	in      *mixInputs
	srv     *serve.Server
	clients [mixTenants]*serve.Client
	tapped  [mixTenants]*serve.Client
	taps    [mixTenants]*rpcTap
	tapSrv  *defw.Server
	probs   [][]float64

	mu       sync.Mutex
	analytic []analyticAnswer
	base     serve.Stats // after warm-up
}

func newServedMix(seed int64) workload { return &servedMix{in: newMixInputs(seed)} }

func (w *servedMix) why() string {
	return "two tenants on serve.Client over TCP: warmed cache hits beside fresh-seed misses and coalescable analytic QAOA queries"
}

func (w *servedMix) config() core.Config {
	return core.Config{UseTCP: true}
}

func (w *servedMix) connect(s *core.Session) error {
	// qfwd's defaults: cache 4096 entries, 2 ms admission window.
	w.srv = serve.New(s.QPM("aer"), serve.Config{CacheCap: 4096, Window: 2 * time.Millisecond}, s.Rec)
	s.RegisterService(serve.ServiceName("aer"), w.srv)
	for c := range w.clients {
		rpc, err := s.Connect()
		if err != nil {
			return err
		}
		w.clients[c] = serve.NewClient(rpc, "aer", fmt.Sprintf("tenant-%d", c))
	}
	return nil
}

func (w *servedMix) prepare(h *harness) error {
	w.probs = make([][]float64, len(w.in.motifs))
	for i, m := range w.in.motifs {
		w.probs[i] = exactProbs(m.circ)
	}
	if h.tr != nil {
		// One tapped service name per tenant, so each tap knows which
		// client's request it is serving.
		w.tapSrv = defw.NewServer()
		for c := range w.tapped {
			w.taps[c] = &rpcTap{inner: w.srv, h: h, tr: h.tr}
			name := fmt.Sprintf("aer-t%d", c)
			w.tapSrv.Register(serve.ServiceName(name), w.taps[c])
		}
		addr, err := w.tapSrv.ListenTCP("127.0.0.1:0")
		if err != nil {
			return err
		}
		for c := range w.tapped {
			rpc, err := defw.Dial(addr)
			if err != nil {
				return err
			}
			w.tapped[c] = serve.NewClient(rpc, fmt.Sprintf("aer-t%d", c), fmt.Sprintf("tenant-%d", c))
		}
	}
	// Warm the hot set: every key misses once and is inserted.
	for _, k := range w.in.hot {
		m := w.in.motifs[k.motif]
		spec, err := core.SpecFromCircuit(m.circ)
		if err != nil {
			return err
		}
		if _, _, err := w.clients[0].Run(spec, m.opts(k.seed)); err != nil {
			return fmt.Errorf("warm hot set: %w", err)
		}
	}
	w.base = w.srv.Stats()
	return nil
}

// pass runs one round on every client concurrently.
func (w *servedMix) pass(h *harness, tr *tracer) error {
	var wg sync.WaitGroup
	errs := make([]error, mixTenants)
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.round(h, tr, c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *servedMix) round(h *harness, tr *tracer, c int) error {
	client := w.clients[c]
	if tr != nil {
		client = w.tapped[c]
	}
	for _, r := range w.in.round(c) {
		var req, call int64
		var t0 time.Time
		if tr != nil {
			req, call = tr.id(), tr.id()
			w.taps[c].ctx.set(call, req)
			t0 = time.Now()
		}
		c0 := time.Now()
		res, ok, err := w.request(h, client, r)
		c1 := time.Now()
		lat := float64(c1.Sub(c0)) / float64(time.Millisecond)
		failed := err != nil || !ok
		h.op(mixKindNames[r.kind], lat, tr != nil, failed)
		if tr == nil || failed {
			continue
		}
		tr.record(call, req, req, "serve.client.run", c0, c1)
		tr.record(req, 0, req, "op:"+mixKindNames[r.kind], t0, time.Now())
		h.layer(func(l *layerSamples) {
			l.ops++
			l.addResult(res, lat)
		})
	}
	return nil
}

// request issues one mix request and checks its answer. Analytic answers
// are kept and checked against a direct statevector run after the window.
func (w *servedMix) request(h *harness, client *serve.Client, r mixReq) (*core.Result, bool, error) {
	if r.kind == mixKindAnalytic {
		spec, err := core.SpecFromParametric(w.in.ansatz)
		if err != nil {
			return nil, false, err
		}
		opts := core.RunOptions{Observable: w.in.obs, Subbackend: "statevector"}
		results, errs, _, err := client.RunBatch(spec, []core.Bindings{r.binding}, opts)
		if err != nil {
			return nil, false, err
		}
		if errs[0] != "" || results[0] == nil || results[0].ExpVal == nil {
			return nil, h.check("analytic_has_expval", false), nil
		}
		w.mu.Lock()
		w.analytic = append(w.analytic, analyticAnswer{binding: r.binding, expval: *results[0].ExpVal})
		w.mu.Unlock()
		return results[0], h.checkTimings(results[0]), nil
	}
	m := w.in.motifs[r.motif]
	spec, err := core.SpecFromCircuit(m.circ)
	if err != nil {
		return nil, false, err
	}
	res, _, err := client.Run(spec, m.opts(r.seed))
	if err != nil {
		return nil, false, err
	}
	ok := h.checkSampled(m, res)
	h.addQuality(sampleFidelity(res.Counts, w.probs[r.motif]))
	return res, ok, nil
}

func (w *servedMix) finish(h *harness) error {
	// Sampled analytic expectations must match a direct statevector run.
	workers := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(1))
	for _, a := range w.analytic {
		st, _ := statevec.RunFused(unmeasured(w.in.ansatz.Bind(a.binding)), nil, workers, rng)
		want := st.ExpectationDiagonal(w.in.obs.EnergyOfIndex)
		st.Release()
		if !h.check("analytic_matches_statevec", math.Abs(want-a.expval) <= 1e-9*math.Max(1, math.Abs(want))) {
			h.fail()
		}
	}
	st, b := w.srv.Stats(), w.base
	h.check("serve_shed_zero", st.Shed == 0)
	h.note("serve: hits %d misses %d deduped %d shed %d groups %d elems %d cache_len %d peak_depth %d",
		st.CacheHits, st.CacheMisses, st.Deduped, st.Shed, st.DispatchGroups, st.DispatchElems, st.CacheLen, st.PeakQueueDepth)
	served := make([]float64, 0, mixTenants)
	for c := range w.clients {
		name := fmt.Sprintf("tenant-%d", c)
		served = append(served, float64(st.Tenants[name].Served-b.Tenants[name].Served))
	}
	skew := 0.0
	if m := mean(served); m > 0 {
		skew = math.Abs(served[0]-served[1]) / m
	}
	h.layer(func(l *layerSamples) {
		l.serve = &serveDelta{
			hits: st.CacheHits - b.CacheHits, misses: st.CacheMisses - b.CacheMisses,
			deduped: st.Deduped - b.Deduped, shed: st.Shed - b.Shed,
			groups: st.DispatchGroups - b.DispatchGroups, elems: st.DispatchElems - b.DispatchElems,
			tenantSkew: skew, utilizationPct: st.UtilizationPct,
		}
	})
	return nil
}

func (w *servedMix) probes() []motif { return w.in.motifs }

func (w *servedMix) close() {
	if w.tapSrv != nil {
		w.tapSrv.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
