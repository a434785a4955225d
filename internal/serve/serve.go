// Package serve is the multi-tenant serving layer between the DEFw RPC
// surface and a backend QPM: the piece that turns the single-job demo
// daemon into a traffic-bearing service. It is the cache, single-flight
// and RPC front over the QPM's one scheduler:
//
//   - a content-addressed result cache (exact-hit replay of deterministic
//     seeded runs, expectation-value memoization for analytic queries) with
//     single-flight deduplication, so N concurrent identical submissions
//     trigger one execution and repeats are served from memory;
//   - tenant-tagged admission into the QPM's weighted fair-share queue:
//     mergeable submissions (analytic queries, unseeded singles) carry a
//     group key, so a short admission window coalesces them into one QPM
//     job riding the compile-once-per-batch machinery of the engines, and
//     tenant quotas and the QPM's one queue bound shed load with a typed
//     core.ErrOverloaded instead of growing without bound.
package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/core"
	"qfw/internal/trace"
)

// ServiceName returns the DEFw service a backend's serving layer registers
// under (beside the raw "qpm.<backend>" service).
func ServiceName(backend string) string { return "serve." + backend }

// Config tunes one serving layer instance. The zero value gets sensible
// production defaults; tests shrink the bounds to exercise the shedding and
// eviction paths.
type Config struct {
	// CacheCap bounds the result cache (entries). 0 means the default
	// (4096); negative disables caching and single-flight deduplication.
	CacheCap int
	// Window is the coalescing admission window: a mergeable submission
	// waits this long for same-group friends before its job is ready. 0
	// disables the wait (bursts still coalesce while every worker is busy).
	Window time.Duration
	// MaxBatch caps the elements of one coalesced job (default 64).
	MaxBatch int
	// QueueCap, when positive, shrinks the QPM's queued-element bound,
	// which direct and served submissions share (default 1024).
	QueueCap int
	// Quota is the default per-tenant bound on outstanding (queued +
	// running) elements; 0 leaves only the shared queue bound. SetTenant
	// overrides it.
	Quota int
}

// elem is one element of an Exec call.
type elem struct {
	sub      *submission
	idx      int
	key      string // cache key; "" when the element is not cacheable
	hit      bool   // resolved from the cache; a whole-batch recompute skips it
	leader   bool   // owns the single-flight entry for key
	lookupMS float64
}

// submission collects one Exec call's element outcomes; each element
// resolves exactly once.
type submission struct {
	results []*core.Result
	errs    []string
	wg      sync.WaitGroup
}

func (s *submission) resolve(i int, res *core.Result, errStr string) {
	s.results[i], s.errs[i] = res, errStr
	s.wg.Done()
}

// Server is the serving layer of one backend QPM.
type Server struct {
	backend string
	qpm     *core.QPM
	caps    core.Capabilities
	cfg     Config
	cache   *resultCache // nil when disabled
	start   time.Time
	busy0   int64 // QPM busy time at start, so utilization covers this layer's life

	mu      sync.Mutex
	flights map[string][]*elem // single-flight: key -> followers riding its leader
	closed  atomic.Bool

	hits    atomic.Int64
	misses  atomic.Int64
	deduped atomic.Int64
	shedded atomic.Int64
	served  atomic.Int64

	// Resolved metric handles (shared registry, labeled by backend).
	mHits, mMisses, mDeduped, mShed, mServed *trace.Counter
	hReq                                     *trace.Histogram
}

// New builds the serving layer over a QPM. rec may be nil.
func New(qpm *core.QPM, cfg Config, rec *trace.Recorder) *Server {
	if rec == nil {
		rec = qpm.Recorder()
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.QueueCap > 0 {
		qpm.SetQueueCap(cfg.QueueCap)
	}
	s := &Server{
		backend: qpm.Backend(),
		qpm:     qpm,
		caps:    qpm.Capabilities(),
		cfg:     cfg,
		start:   time.Now(),
		busy0:   qpm.BusyNS(),
		flights: make(map[string][]*elem),
	}
	if cfg.CacheCap > 0 {
		s.cache = newResultCache(cfg.CacheCap)
	}
	met := rec.Metrics()
	s.mHits = met.Counter(trace.LabeledName("qfw_serve_cache_hits_total", "backend", s.backend))
	s.mMisses = met.Counter(trace.LabeledName("qfw_serve_cache_misses_total", "backend", s.backend))
	s.mDeduped = met.Counter(trace.LabeledName("qfw_serve_deduped_total", "backend", s.backend))
	s.mShed = met.Counter(trace.LabeledName("qfw_serve_shed_total", "backend", s.backend))
	s.mServed = met.Counter(trace.LabeledName("qfw_serve_served_total", "backend", s.backend))
	s.hReq = met.Histogram(trace.LabeledName("qfw_serve_request_ms", "backend", s.backend))
	return s
}

// Backend returns the backend this serving layer fronts.
func (s *Server) Backend() string { return s.backend }

// SetTenant configures a tenant's fair-share weight and outstanding-element
// quota in the QPM scheduler (zero values keep the current ones).
func (s *Server) SetTenant(name string, weight, quota int) { s.qpm.SetTenant(name, weight, quota) }

// ExecInfo summarizes how a submission was served.
type ExecInfo struct {
	CacheHits int `json:"cache_hits"`
	Deduped   int `json:"deduped"`
}

// Exec runs one submission — a spec plus zero or more bindings — on behalf
// of a tenant and blocks until every element resolves. Results come back
// ordered with parallel per-element error strings ("" for success). The
// top-level error is non-nil only when the whole submission was rejected
// (draining, closed, bad spec, or shed with core.ErrOverloaded).
func (s *Server) Exec(tenant string, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, []string, ExecInfo, error) {
	var info ExecInfo
	if spec.QASM == "" {
		return nil, nil, info, fmt.Errorf("serve[%s]: empty circuit spec", s.backend)
	}
	if tenant == "" {
		tenant = "default"
	}
	reqStart := time.Now()
	single := len(bindings) <= 1
	if len(bindings) == 0 {
		bindings = []core.Bindings{nil}
	}
	k := len(bindings)

	clientSeeded := opts.Seed != 0
	analytic := opts.Shots == 0 && opts.Observable != nil
	cacheable := s.cache != nil && s.caps.DeterministicSeeded && (analytic || clientSeeded)
	sub := &submission{results: make([]*core.Result, k), errs: make([]string, k)}
	sub.wg.Add(k)
	elems := make([]*elem, k)
	for i := range bindings {
		e := &elem{sub: sub, idx: i}
		if cacheable {
			eo := opts
			if !single {
				// Element seeds follow the QPM batch schedule so serving a
				// batch is bit-identical to submitting it directly.
				eo = opts.ForElement(i)
			}
			e.key = cacheKey(spec, bindings[i], eo, analytic)
		}
		elems[i] = e
	}

	adm := core.Admission{Tenant: tenant, Spec: spec, Opts: opts, MaxBatch: s.cfg.MaxBatch, Quota: s.cfg.Quota}
	// Mergeable elements carry no per-element seed contract: analytic
	// queries (no sampling) and unseeded singles (caller accepted arbitrary
	// sampling). Only they wait out the admission window; everything else
	// keeps its submission's seed schedule and travels as one intact job.
	mergeable := analytic || (single && !clientSeeded)
	if mergeable {
		adm.Window = s.cfg.Window
		norm := opts
		norm.Seed = 0
		class := "u|"
		if analytic {
			class = "a|"
		}
		adm.Group = class + cacheKey(spec, nil, norm, analytic)
	}

	if s.closed.Load() {
		return nil, nil, info, fmt.Errorf("serve[%s]: closed", s.backend)
	}
	s.mu.Lock()
	// Resolve what never needs the queue: cache hits and rides on in-flight
	// identical executions.
	var need []*elem
	for _, e := range elems {
		if e.key != "" {
			lookStart := time.Now()
			res, ok := s.cache.Get(e.key)
			lookMS := float64(time.Since(lookStart)) / float64(time.Millisecond)
			if ok {
				s.hits.Add(1)
				s.mHits.Inc()
				info.CacheHits++
				// A hit's entire cost is the lookup: report it instead of a
				// zeroed breakdown so clients can still reconcile TotalMS.
				res.Timings.CacheLookupMS = lookMS
				res.Timings.TotalMS = res.Timings.Sum()
				e.hit = true
				e.sub.resolve(e.idx, res, "")
				continue
			}
			e.lookupMS = lookMS
			s.misses.Add(1)
			s.mMisses.Inc()
			if followers, ok := s.flights[e.key]; ok && single {
				s.deduped.Add(1)
				s.mDeduped.Inc()
				info.Deduped++
				s.flights[e.key] = append(followers, e)
				continue
			}
		}
		need = append(need, e)
	}
	if len(need) > 0 && !mergeable && len(need) < k {
		// A seed-scheduled batch recomputes whole or not at all: partial
		// replay would shift the remaining elements' batch indices (and
		// thus seeds). Hits already resolved above stay resolved; their
		// recomputed duplicates are dropped.
		need = elems
	}
	var err error
	if len(need) > 0 {
		lead := single && need[0].key != ""
		if lead {
			need[0].leader = true
			s.flights[need[0].key] = nil
		}
		adm.Elems = make([]core.Element, len(need))
		for i, e := range need {
			adm.Elems[i] = core.Element{Binding: bindings[e.idx], Done: func(res *core.Result, errStr string) { s.complete(e, res, errStr) }}
		}
		if err = s.qpm.Admit(adm); err != nil && lead {
			delete(s.flights, need[0].key)
		}
	}
	s.mu.Unlock()

	if err != nil {
		if core.IsOverloaded(err) {
			s.shedded.Add(int64(len(need)))
			s.mShed.Add(int64(len(need)))
		}
		for _, e := range need {
			if !e.hit {
				e.sub.resolve(e.idx, nil, err.Error())
			}
		}
	}
	sub.wg.Wait()
	s.hReq.Observe(float64(time.Since(reqStart)) / float64(time.Millisecond))
	return sub.results, sub.errs, info, err
}

// complete is an executed element's Done callback: it adds the cache
// lookup the QPM cannot see to the breakdown (TotalMS stays the exact
// component sum), fills the cache, resolves the element and hands its
// outcome to the single-flight followers that rode it.
func (s *Server) complete(e *elem, res *core.Result, errStr string) {
	if res != nil {
		res.Timings.CacheLookupMS = e.lookupMS
		res.Timings.TotalMS = res.Timings.Sum()
		if e.key != "" {
			s.cache.Put(e.key, res)
		}
	}
	s.served.Add(1)
	s.mServed.Inc()
	if !e.hit {
		e.sub.resolve(e.idx, res, errStr)
	}
	if !e.leader {
		return
	}
	s.mu.Lock()
	followers := s.flights[e.key]
	delete(s.flights, e.key)
	s.mu.Unlock()
	for _, f := range followers {
		f.sub.resolve(f.idx, replayOf(res), errStr)
	}
}

// replayOf copies a result for a second consumer. Like a cache hit, the
// replay costs no queue or execution time, so the breakdown resets to a
// bare cache-hit marker.
func replayOf(res *core.Result) *core.Result {
	if res == nil {
		return nil
	}
	cp := *res
	cp.Timings = core.Timings{CacheHit: true}
	return &cp
}

// Close stops admission. Work already queued on the QPM still runs and
// resolves its submissions; draining the QPM (or the session) flushes it.
func (s *Server) Close() { s.closed.Store(true) }

// Stats is the serving layer's observable state: cache effectiveness,
// dedup/coalescing activity, shedding, the QPM scheduler's queue depths and
// tenants, and QRC-worker utilization since the layer started.
type Stats struct {
	Backend        string                      `json:"backend"`
	CacheHits      int64                       `json:"cache_hits"`
	CacheMisses    int64                       `json:"cache_misses"`
	CacheLen       int                         `json:"cache_len"`
	Deduped        int64                       `json:"deduped"`
	Served         int64                       `json:"served"`
	Shed           int64                       `json:"shed"`
	DispatchGroups int64                       `json:"dispatch_groups"`
	DispatchElems  int64                       `json:"dispatch_elems"`
	QueueDepth     int                         `json:"queue_depth"`
	PeakQueueDepth int                         `json:"peak_queue_depth"`
	UtilizationPct float64                     `json:"utilization_pct"`
	Tenants        map[string]core.TenantStats `json:"tenants,omitempty"`
}

// Stats snapshots the serving layer counters.
func (s *Server) Stats() Stats {
	sch := s.qpm.SchedStats()
	st := Stats{
		Backend:        s.backend,
		CacheHits:      s.hits.Load(),
		CacheMisses:    s.misses.Load(),
		Deduped:        s.deduped.Load(),
		Served:         s.served.Load(),
		Shed:           s.shedded.Load(),
		DispatchGroups: sch.Groups,
		DispatchElems:  s.served.Load(),
		QueueDepth:     sch.Queued,
		PeakQueueDepth: sch.PeakQueued,
		Tenants:        sch.Tenants,
	}
	if s.cache != nil {
		st.CacheLen = s.cache.Len()
	}
	wall := time.Since(s.start)
	st.UtilizationPct = 100 * float64(s.qpm.BusyNS()-s.busy0) / (float64(wall) * float64(s.qpm.Workers()))
	return st
}

// ---- DEFw RPC surface -------------------------------------------------

// ExecReq is the payload of the "exec" method: one tenant-tagged
// submission. Single runs ship an empty binding list.
type ExecReq struct {
	Tenant   string           `json:"tenant"`
	Spec     core.CircuitSpec `json:"spec"`
	Bindings []core.Bindings  `json:"bindings,omitempty"`
	Opts     core.RunOptions  `json:"opts"`
}

// ExecResp is the "exec" reply: ordered results with parallel per-element
// error strings, plus how the submission was served.
type ExecResp struct {
	Results []*core.Result `json:"results"`
	Errs    []string       `json:"errs,omitempty"`
	Info    ExecInfo       `json:"info"`
}

// tenantReq is the payload of "set_tenant".
type tenantReq struct {
	Name   string `json:"name"`
	Weight int    `json:"weight,omitempty"`
	Quota  int    `json:"quota,omitempty"`
}

// Handle implements defw.Handler: exec, stats, set_tenant. Each request
// carries its tenant token, so one connection can serve many sessions.
func (s *Server) Handle(method string, payload []byte) ([]byte, error) {
	switch method {
	case "exec":
		var req ExecReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("serve[%s]: bad payload: %w", s.backend, err)
		}
		results, errs, info, err := s.Exec(req.Tenant, req.Spec, req.Bindings, req.Opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ExecResp{Results: results, Errs: errs, Info: info})
	case "stats":
		return json.Marshal(s.Stats())
	case "set_tenant":
		var req tenantReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("serve[%s]: bad payload: %w", s.backend, err)
		}
		if req.Name == "" {
			return nil, fmt.Errorf("serve[%s]: tenant name required", s.backend)
		}
		s.SetTenant(req.Name, req.Weight, req.Quota)
		return json.Marshal(struct{}{})
	default:
		return nil, fmt.Errorf("serve[%s]: unknown method %q", s.backend, method)
	}
}
