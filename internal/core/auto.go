package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"qfw/internal/cost"
	"qfw/internal/statevec"
)

// AutoExecutor implements the paper's stated future-work extension:
// automated workload-driven backend selection. Routing is driven by the
// calibrated cost model (internal/cost): per-circuit structural features are
// extracted once per spec hash from the cached fusion plan, every registered
// engine is sized (kernel workers from the autotuner, shard counts for the
// distributed path, bond caps from the entanglement bound) and scored on its
// fitted cost curve, and the argmin wins. Clifford circuits short-circuit to
// the stabilizer engine — polynomial simulation beats every dense engine at
// any size worth routing. When no calibration is available (QFW_COST=off)
// the pre-model structural rules apply:
//
//   - Clifford-only circuits      → aer/stabilizer,
//   - nearest-neighbour circuits  → aer/matrix_product_state,
//   - shallow circuits            → qtensor/numpy,
//   - small dense circuits        → aer/statevector,
//   - everything else             → nwqsim/mpi.
//
// Both paths consult only the backends actually registered, so the selector
// works on sessions launched with a backend subset. Batched submissions may
// additionally be split across the top two engines when the model predicts
// the split finishes earlier than any single target.
type AutoExecutor struct {
	execs    map[string]Executor
	batch    map[string]BatchExecutor // execs, each through asBatch
	cache    *ParseCache
	model    *cost.Model
	memBytes int64 // dense-amplitude budget candidate sizing respects (0 = unbounded)
	fallback bool  // re-route a failed submission to the next ranked engine
}

// NewAutoExecutor wraps the live executors of a session under the
// process-wide cost model (cost.Current). Runtime fallback re-routing is
// on by default: when the chosen engine fails at execution time the
// submission moves to the next ranked candidate instead of failing, and
// the result's Route is annotated "fallback:<engine>".
func NewAutoExecutor(execs map[string]Executor) *AutoExecutor {
	a := &AutoExecutor{execs: execs, batch: make(map[string]BatchExecutor, len(execs)), cache: NewParseCache(), model: cost.Current(), fallback: true}
	for name, e := range execs {
		a.batch[name] = asBatch(e, a.cache)
	}
	return a
}

// WithFallback toggles runtime fallback re-routing (the ablation-faults
// bench measures both sides) and returns the executor.
func (a *AutoExecutor) WithFallback(on bool) *AutoExecutor {
	a.fallback = on
	return a
}

// WithModel overrides the cost model (nil forces the structural rules) and
// returns the executor — a hook for tests and tooling.
func (a *AutoExecutor) WithModel(m *cost.Model) *AutoExecutor {
	a.model = m
	return a
}

// WithMemBudget sets the session's dense-amplitude memory budget so the
// ranker withdraws state-vector candidates that could only fail, and keeps
// the truncating MPS route alive when it is the only engine that fits.
func (a *AutoExecutor) WithMemBudget(bytes int64) *AutoExecutor {
	a.memBytes = bytes
	return a
}

// Name implements Executor.
func (a *AutoExecutor) Name() string { return "auto" }

// Capabilities implements Executor. CPU/GPU/NativeMPI are the union of what
// the registered local executors advertise — the selector can only deliver a
// capability some routable backend actually has.
func (a *AutoExecutor) Capabilities() Capabilities {
	var targets []string
	var cpu, gpu, nativeMPI bool
	for name, e := range a.execs {
		if name == "ionq" {
			continue // never a routing target
		}
		targets = append(targets, name)
		caps := e.Capabilities()
		cpu = cpu || caps.CPU
		gpu = gpu || caps.GPU
		nativeMPI = nativeMPI || caps.NativeMPI
	}
	sort.Strings(targets)
	_, _, grads := a.gradientTarget(nil)
	mode := "structural rules"
	if a.model != nil {
		mode = "calibrated cost model"
	}
	return Capabilities{
		Backend:     "auto",
		Subbackends: []string{"workload-driven"},
		CPU:         cpu,
		GPU:         gpu,
		NativeMPI:   nativeMPI,
		Gradients:   grads,
		// Routing never targets the cloud path and is a deterministic
		// function of (spec, opts) within one process, so a seeded auto
		// execution replays exactly like its routed local engine.
		DeterministicSeeded: true,
		Notes: fmt.Sprintf("Workload-driven backend selection (paper future work): routes by %s across %v.",
			mode, targets),
	}
}

// Decision is one routing verdict: the chosen engine, the sized resources,
// the predicted per-element cost (0 without calibration), and — for batches
// — an optional heterogeneous split across a secondary engine.
type Decision struct {
	Backend     string
	Sub         string
	Rule        string // "cost-model", "cost-split", or a structural rule name
	Res         cost.Resources
	PredictedMS float64

	SplitBackend     string
	SplitSub         string
	SplitRes         cost.Resources
	SplitPredictedMS float64
	SplitFrac        float64 // fraction of elements on the primary engine
}

// route renders the annotation string of the decision.
func (d Decision) route() string {
	if d.SplitBackend != "" {
		return fmt.Sprintf("%s/%s+%s/%s (%s)", d.Backend, d.Sub, d.SplitBackend, d.SplitSub, d.Rule)
	}
	return strings.TrimSpace(fmt.Sprintf("%s/%s (%s)", d.Backend, d.Sub, d.Rule))
}

// candidateSubs lists the engine keys the model may route to, per backend.
var candidateSubs = map[string][]string{
	"aer":     {"statevector", "matrix_product_state", "stabilizer"},
	"nwqsim":  {"openmp", "mpi"},
	"qtensor": {"numpy"},
	"tnqvm":   {"exatn-mps"},
}

// decide selects the route for a k-element submission. The cost model path
// ranks sized candidates by predicted runtime; without a model (or when the
// model offers no candidate for this session's backends) the structural
// rules decide.
func (a *AutoExecutor) decide(spec CircuitSpec, k int) (Decision, error) {
	if a.model == nil {
		return a.selectStructural(spec)
	}
	f, err := a.cache.GetFeatures(spec)
	if err != nil {
		return Decision{}, err
	}
	// Clifford circuits short-circuit: the tableau engine is polynomial
	// where everything else is exponential, and exact.
	if f.Clifford {
		if _, ok := a.execs["aer"]; ok {
			d := Decision{Backend: "aer", Sub: "stabilizer", Rule: "clifford"}
			if ms, ok := a.model.PredictMS(cost.AerStab, f, cost.Resources{}); ok {
				d.PredictedMS = ms
			}
			return d, nil
		}
	}
	var engines []string
	for name := range a.execs {
		for _, sub := range candidateSubs[name] {
			engines = append(engines, name+"/"+sub)
		}
	}
	sort.Strings(engines)
	env := cost.Env{Workers: statevec.CurrentTuning().Workers, Cores: runtime.GOMAXPROCS(0), MemBytes: a.memBytes}
	cands := a.model.Rank(f, engines, env)
	if len(cands) == 0 {
		return a.selectStructural(spec)
	}
	best := cands[0]
	backend, sub, _ := strings.Cut(best.Engine, "/")
	d := Decision{Backend: backend, Sub: sub, Rule: "cost-model", Res: best.Res, PredictedMS: best.MS()}
	if plan := a.model.PlanSplit(cands, k); plan != nil {
		sb, ss, _ := strings.Cut(plan.B.Engine, "/")
		d.Rule = "cost-split"
		d.SplitBackend, d.SplitSub = sb, ss
		d.SplitRes = plan.B.Res
		d.SplitPredictedMS = plan.B.MS()
		d.SplitFrac = plan.FracA
	}
	return d, nil
}

// decideRanked returns the primary routing decision followed by the
// ordered fallback candidates (empty tail when fallback is off). Model
// alternates come from the cost ranking; structural alternates — every
// registered local engine in sorted order — close the list so a session
// without calibration still has somewhere to degrade to.
func (a *AutoExecutor) decideRanked(spec CircuitSpec, k int) ([]Decision, error) {
	primary, err := a.decide(spec, k)
	if err != nil {
		return nil, err
	}
	out := []Decision{primary}
	if !a.fallback {
		return out, nil
	}
	seen := map[string]bool{primary.Backend + "/" + primary.Sub: true}
	add := func(backend, sub string, res cost.Resources, ms float64) {
		key := backend + "/" + sub
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Decision{Backend: backend, Sub: sub, Rule: "fallback", Res: res, PredictedMS: ms})
	}
	if a.model != nil {
		if f, ferr := a.cache.GetFeatures(spec); ferr == nil {
			var engines []string
			for name := range a.execs {
				for _, sub := range candidateSubs[name] {
					engines = append(engines, name+"/"+sub)
				}
			}
			sort.Strings(engines)
			env := cost.Env{Workers: statevec.CurrentTuning().Workers, Cores: runtime.GOMAXPROCS(0), MemBytes: a.memBytes}
			for _, c := range a.model.Rank(f, engines, env) {
				backend, sub, _ := strings.Cut(c.Engine, "/")
				add(backend, sub, c.Res, c.MS())
			}
		}
	}
	var names []string
	for name := range a.execs {
		if name != "ionq" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, sub := range candidateSubs[name] {
			add(name, sub, cost.Resources{}, 0)
		}
	}
	return out, nil
}

// selectStructural applies the pre-calibration structural rules against the
// available executors.
func (a *AutoExecutor) selectStructural(spec CircuitSpec) (Decision, error) {
	c, err := a.cache.Get(spec)
	if err != nil {
		return Decision{}, err
	}
	has := func(name string) bool {
		_, ok := a.execs[name]
		return ok
	}
	n := c.NQubits
	depth := c.Depth()
	switch {
	case c.IsClifford() && has("aer"):
		return Decision{Backend: "aer", Sub: "stabilizer", Rule: "clifford"}, nil
	case c.InteractionDistance() <= 1 && n >= 12 && has("aer"):
		return Decision{Backend: "aer", Sub: "matrix_product_state", Rule: "nearest-neighbour"}, nil
	case c.InteractionDistance() <= 1 && n >= 12 && has("tnqvm"):
		return Decision{Backend: "tnqvm", Sub: "exatn-mps", Rule: "nearest-neighbour"}, nil
	case depth <= 8 && n <= 16 && has("qtensor"):
		return Decision{Backend: "qtensor", Sub: "numpy", Rule: "shallow"}, nil
	case n <= 18 && has("aer"):
		return Decision{Backend: "aer", Sub: "statevector", Rule: "small-dense"}, nil
	case has("nwqsim"):
		return Decision{Backend: "nwqsim", Sub: "mpi", Rule: "large-dense"}, nil
	}
	// Fall back to any local executor, preferring deterministic order.
	var names []string
	for name := range a.execs {
		if name != "ionq" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return Decision{}, fmt.Errorf("auto: no local backend available to route to")
	}
	return Decision{Backend: names[0], Rule: "fallback"}, nil
}

// applyResources writes the sized resources into the options, never
// overriding knobs the caller set explicitly.
func applyResources(backend, sub string, res cost.Resources, opts *RunOptions) {
	opts.Subbackend = sub
	if res.MaxBond > 0 && opts.MaxBond == 0 {
		opts.MaxBond = res.MaxBond
	}
	if backend == "nwqsim" && sub == "mpi" && res.Ranks > 0 && opts.Nodes == 0 && opts.ProcsPerNode == 0 {
		opts.Nodes = 1
		opts.ProcsPerNode = res.Ranks
	}
}

// annotate stamps the routing metadata on a result.
func annotate(res *ExecResult, route string, predictedMS, actualMS float64, split bool) {
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Extra["auto_routed"] = 1
	if predictedMS > 0 {
		res.Extra["auto_predicted_ms"] = predictedMS
	}
	if actualMS > 0 {
		res.Extra["auto_actual_ms"] = actualMS
	}
	if split {
		res.Extra["auto_split"] = 1
	}
	res.Route = route
}

// Execute implements Executor as a batch of one: decide, delegate, and
// annotate the result with the route plus predicted-vs-actual runtime.
func (a *AutoExecutor) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	results, err := a.ExecuteBatch(spec, []Bindings{nil}, opts)
	if err != nil {
		return ExecResult{}, err
	}
	return results[0], nil
}

// ExecuteBatch implements BatchExecutor: the route is decided once per batch
// from the shared spec and the batch is delegated whole. When the chosen
// engine fails and fallback is on, the next ranked candidate takes the
// batch; the first (primary) error is what callers see if every candidate
// fails. When the model predicts a heterogeneous split beats any single
// engine, the head of the batch runs on the primary and the tail
// concurrently on the secondary, with the tail's base seed offset so every
// element keeps the exact seed it would have had unsplit. Results carry
// the predicted per-element cost and the measured one: the delegated
// call's wall time divided across its elements.
func (a *AutoExecutor) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	cands, err := a.decideRanked(spec, len(bindings))
	if err != nil {
		return nil, err
	}
	if d := cands[0]; d.SplitBackend != "" {
		if results, err := a.executeSplit(d, spec, bindings, opts); err == nil {
			return results, nil
		}
		// A failed split (e.g. the secondary engine rejects the circuit)
		// falls back to the primary engine whole rather than failing the
		// submission.
	}
	var firstErr error
	for ci, d := range cands {
		rule := singleRule(d)
		start := time.Now()
		results, err := a.delegateBatch(d.Backend, d.Sub, d.Res, spec, bindings, opts, 0)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("auto[%s->%s/%s]: %w", rule, d.Backend, d.Sub, err)
			}
			continue
		}
		route := fmt.Sprintf("%s/%s (%s)", d.Backend, d.Sub, rule)
		if ci > 0 {
			route = fmt.Sprintf("fallback:%s/%s (after %s/%s)", d.Backend, d.Sub, cands[0].Backend, cands[0].Sub)
		}
		actual := msPerElement(start, len(results))
		for i := range results {
			annotate(&results[i], route, d.PredictedMS, actual, false)
		}
		return results, nil
	}
	return nil, firstErr
}

// msPerElement is the wall time since start shared across n elements.
func msPerElement(start time.Time, n int) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond) / float64(max(n, 1))
}

// singleRule is the rule label when a split decision degrades to a whole-
// batch delegation.
func singleRule(d Decision) string {
	if d.Rule == "cost-split" {
		return "cost-model"
	}
	return d.Rule
}

// executeSplit runs the head of the batch on the primary engine and the
// tail on the secondary, concurrently, reassembling results in order.
func (a *AutoExecutor) executeSplit(d Decision, spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	k := len(bindings)
	nA := int(math.Round(d.SplitFrac * float64(k)))
	if nA < 1 {
		nA = 1
	}
	if nA > k-1 {
		nA = k - 1
	}
	var (
		wg         sync.WaitGroup
		resA, resB []ExecResult
		errA, errB error
		msA, msB   float64
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		start := time.Now()
		resA, errA = a.delegateBatch(d.Backend, d.Sub, d.Res, spec, bindings[:nA], opts, 0)
		msA = msPerElement(start, nA)
	}()
	go func() {
		defer wg.Done()
		start := time.Now()
		resB, errB = a.delegateBatch(d.SplitBackend, d.SplitSub, d.SplitRes, spec, bindings[nA:], opts, nA)
		msB = msPerElement(start, k-nA)
	}()
	wg.Wait()
	if errA != nil {
		return nil, fmt.Errorf("auto[cost-split->%s/%s]: %w", d.Backend, d.Sub, errA)
	}
	if errB != nil {
		return nil, fmt.Errorf("auto[cost-split->%s/%s]: %w", d.SplitBackend, d.SplitSub, errB)
	}
	results := append(resA, resB...)
	route := d.route()
	for i := range results {
		pred, actual := d.PredictedMS, msA
		if i >= nA {
			pred, actual = d.SplitPredictedMS, msB
		}
		annotate(&results[i], route, pred, actual, true)
	}
	return results, nil
}

// delegateBatch runs a (sub-)batch on one engine. seedOffset shifts the base
// seed so a split tail reproduces exactly the per-element seeds
// (RunOptions.ForElement) it would have received in the unsplit batch.
func (a *AutoExecutor) delegateBatch(backend, sub string, res cost.Resources, spec CircuitSpec, bindings []Bindings, opts RunOptions, seedOffset int) ([]ExecResult, error) {
	target, ok := a.batch[backend]
	if !ok {
		return nil, fmt.Errorf("auto: selected backend %q not available", backend)
	}
	applyResources(backend, sub, res, &opts)
	if seedOffset > 0 {
		opts = opts.ForElement(seedOffset)
	}
	return target.ExecuteBatch(spec, bindings, opts)
}

// gradPreference is the fixed adjoint-engine fallback order.
var gradPreference = []string{"aer", "nwqsim"}

// svKeyOf maps a backend to the statevector-family engine key its adjoint
// path runs on (the adjoint sweep is dense statevector work).
func svKeyOf(backend string) (string, bool) {
	switch backend {
	case "aer":
		return cost.AerSV, true
	case "nwqsim":
		return cost.NWQOpenMP, true
	}
	return "", false
}

// gradCand is one gradient-capable delegation target.
type gradCand struct {
	name string
	ge   GradientExecutor
}

// gradientTargets is the single discovery point for gradient delegation:
// Capabilities and ExecuteGradient both consult it, so the advertised
// capability can never disagree with the dispatch. With features and a
// calibration the gradient-capable engines are ranked by predicted adjoint
// cost (one forward plus two adjoint sweeps ≈ 3 circuit-equivalents of
// dense statevector work); otherwise the known adjoint engines are
// preferred in a fixed order, then any other GradientExecutor in
// sorted-name order for determinism. The whole ordered list comes back so
// a failed delegation can fall through to the next engine.
func (a *AutoExecutor) gradientTargets(f *cost.Features) []gradCand {
	var rest []string
	for name := range a.execs {
		if name != "aer" && name != "nwqsim" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	names := append(append([]string{}, gradPreference...), rest...)
	if a.model != nil && f != nil {
		type scored struct {
			name string
			ms   float64
			idx  int
		}
		var sc []scored
		for i, name := range names {
			if _, ok := a.execs[name].(GradientExecutor); !ok {
				continue
			}
			ms := math.Inf(1)
			if key, ok := svKeyOf(name); ok {
				if p, ok := a.model.PredictMS(key, f, cost.Resources{Workers: statevec.CurrentTuning().Workers}); ok {
					ms = 3 * p
				}
			}
			sc = append(sc, scored{name, ms, i})
		}
		sort.Slice(sc, func(i, j int) bool {
			if sc[i].ms != sc[j].ms {
				return sc[i].ms < sc[j].ms
			}
			return sc[i].idx < sc[j].idx
		})
		out := make([]gradCand, 0, len(sc))
		for _, s := range sc {
			out = append(out, gradCand{s.name, a.execs[s.name].(GradientExecutor)})
		}
		return out
	}
	var out []gradCand
	for _, name := range names {
		if ge, ok := a.execs[name].(GradientExecutor); ok {
			out = append(out, gradCand{name, ge})
		}
	}
	return out
}

func (a *AutoExecutor) gradientTarget(f *cost.Features) (string, GradientExecutor, bool) {
	if cands := a.gradientTargets(f); len(cands) > 0 {
		return cands[0].name, cands[0].ge, true
	}
	return "", nil, false
}

// ExecuteGradient implements GradientExecutor by delegating to the
// gradient-capable local backend with the lowest predicted adjoint cost
// (fixed preference order without calibration). Gradient evaluation needs
// dense simulator state, so the routing candidates are the adjoint engines
// only and the sub-backend is left to the target's default.
func (a *AutoExecutor) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	var f *cost.Features
	if a.model != nil {
		if ff, err := a.cache.GetFeatures(spec); err == nil {
			f = ff
		}
	}
	cands := a.gradientTargets(f)
	if len(cands) == 0 {
		return nil, fmt.Errorf("auto: no gradient-capable backend available")
	}
	opts.Subbackend = ""
	var firstErr error
	for _, c := range cands {
		res, err := c.ge.ExecuteGradient(spec, bindings, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("auto[gradient->%s]: %w", c.name, err)
			}
			if !a.fallback {
				break
			}
			continue
		}
		return res, nil
	}
	return nil, firstErr
}

// Decide exposes the full routing decision for a k-element submission
// (tests, tooling, the bench route table).
func (a *AutoExecutor) Decide(spec CircuitSpec, k int) (Decision, error) {
	if k < 1 {
		k = 1
	}
	return a.decide(spec, k)
}

// RouteFor exposes the selection decision for inspection (tests, tooling).
func (a *AutoExecutor) RouteFor(spec CircuitSpec) (backend, sub, rule string, err error) {
	d, err := a.decide(spec, 1)
	return d.Backend, d.Sub, d.Rule, err
}
