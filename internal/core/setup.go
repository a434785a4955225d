package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"qfw/internal/cluster"
	"qfw/internal/defw"
	"qfw/internal/faults"
	"qfw/internal/prte"
	"qfw/internal/slurm"
	"qfw/internal/trace"
)

// Env is what backend factories receive: the hetgroup-1 resources the QPMs
// execute on.
type Env struct {
	Machine *cluster.Machine
	DVM     *prte.DVM
	Nodes   []*cluster.Node
	Rec     *trace.Recorder

	// MemBudgetBytes caps state-vector style allocations per execution;
	// configurations over budget return ErrInfeasible (the paper's red X).
	MemBudgetBytes int64

	// Cloud knobs for the remote (IonQ) backend.
	CloudLatency     time.Duration
	CloudJitter      time.Duration
	CloudConcurrency int
	Seed             int64
}

// Factory builds one backend executor against the environment.
type Factory func(env *Env) (Executor, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// RegisterBackend adds a backend factory to the global registry; backend
// packages call this from init, and Launch instantiates every registered
// backend (or the subset named in Config.Backends).
func RegisterBackend(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// RegisteredBackends lists registered backend names, sorted.
func RegisteredBackends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Config describes a full-stack deployment.
type Config struct {
	Machine  *cluster.Machine // default: cluster.Frontier(4)
	AppNodes int              // hetgroup-0 size, default 1
	QFwNodes int              // hetgroup-1 size, default remaining nodes
	Workers  int              // QRC threads per QPM, default 8 (paper)
	Walltime time.Duration    // 0 = unlimited
	Backends []string         // default: every registered backend
	UseTCP   bool             // RPC over TCP loopback instead of in-proc pipes

	MemBudgetBytes   int64 // default 1 GiB
	CloudLatency     time.Duration
	CloudJitter      time.Duration
	CloudConcurrency int
	Seed             int64

	// TraceCap bounds the span recorder's event ring (0 selects
	// trace.DefaultCapacity); older spans are overwritten once full.
	TraceCap int
}

// Session is a running QFw deployment: SLURM job, DVM, QPM services, and
// the RPC endpoint applications connect to.
type Session struct {
	Job   *slurm.Job
	Alloc *slurm.Allocation
	DVM   *prte.DVM
	Rec   *trace.Recorder
	Addr  string // TCP address when UseTCP, "" for pipe transport

	server  *defw.Server
	qpms    []*QPM
	execs   []Executor
	auto    *AutoExecutor
	mu      sync.Mutex
	clients []*defw.Client
	sched   *slurm.Scheduler
	useTCP  bool
	sampler *trace.UtilSampler
}

// Auto returns the session's workload-driven selector (nil when no local
// backend was registered) — tooling uses it to inspect routing decisions
// without going through the RPC layer.
func (s *Session) Auto() *AutoExecutor { return s.auto }

// Launch boots the full stack following the paper's execution flow:
// a SLURM job with two heterogeneous groups is submitted (step 1), the DVM
// and QPM services come up on hetgroup-1 (step 2), and the returned session
// hands out frontends for the application in hetgroup-0 (steps 3-5).
func Launch(cfg Config) (*Session, error) {
	machine := cfg.Machine
	if machine == nil {
		machine = cluster.Frontier(4)
	}
	appNodes := cfg.AppNodes
	if appNodes <= 0 {
		appNodes = 1
	}
	qfwNodes := cfg.QFwNodes
	if qfwNodes <= 0 {
		qfwNodes = len(machine.Nodes) - appNodes
	}
	if qfwNodes <= 0 {
		return nil, fmt.Errorf("core: machine too small for het groups (%d nodes)", len(machine.Nodes))
	}
	sched := slurm.NewScheduler(machine)
	job, err := sched.Submit(slurm.JobReq{
		Name: "qfw",
		HetGroups: []slurm.GroupReq{
			{Name: "hetgroup-0", Nodes: appNodes},
			{Name: "hetgroup-1", Nodes: qfwNodes},
		},
		Walltime: cfg.Walltime,
	})
	if err != nil {
		return nil, err
	}
	alloc, err := job.WaitStart()
	if err != nil {
		return nil, err
	}
	dvm, err := prte.Start(machine, alloc.Group(1))
	if err != nil {
		job.Cancel()
		return nil, err
	}
	traceCap := cfg.TraceCap
	if traceCap <= 0 {
		traceCap = trace.DefaultCapacity
	}
	rec := trace.NewRecorderCap(traceCap)
	memBudget := cfg.MemBudgetBytes
	if memBudget <= 0 {
		memBudget = 1 << 30
	}
	env := &Env{
		Machine:          machine,
		DVM:              dvm,
		Nodes:            alloc.Group(1).Nodes,
		Rec:              rec,
		MemBudgetBytes:   memBudget,
		CloudLatency:     cfg.CloudLatency,
		CloudJitter:      cfg.CloudJitter,
		CloudConcurrency: cfg.CloudConcurrency,
		Seed:             cfg.Seed,
	}
	names := cfg.Backends
	if len(names) == 0 {
		names = RegisteredBackends()
	}
	s := &Session{Job: job, Alloc: alloc, DVM: dvm, Rec: rec, server: defw.NewServer(), sched: sched, useTCP: cfg.UseTCP}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	byName := make(map[string]Executor, len(names))
	for _, name := range names {
		registryMu.RLock()
		factory, ok := registry[name]
		registryMu.RUnlock()
		if !ok {
			s.Teardown()
			return nil, fmt.Errorf("core: backend %q is not registered (have %v)", name, RegisteredBackends())
		}
		exec, err := factory(env)
		if err != nil {
			s.Teardown()
			return nil, fmt.Errorf("core: backend %q failed to start: %w", name, err)
		}
		// An armed QFW_FAULTS schedule wraps every executor in the
		// deterministic injector (unless the factory already did).
		if sched := faults.FromEnv(); sched != nil {
			if _, wrapped := exec.(*FaultyExecutor); !wrapped {
				exec = NewFaultyExecutor(exec, faults.NewInjector(*sched))
			}
		}
		byName[name] = exec
		qpm := NewQPM(exec, workers, rec)
		s.execs = append(s.execs, exec)
		s.qpms = append(s.qpms, qpm)
		s.server.Register(ServiceName(name), qpm)
	}
	// The workload-driven selector (paper future work) fronts the live
	// executors under the reserved name "auto".
	if len(byName) > 0 {
		auto := NewAutoExecutor(byName).WithMemBudget(memBudget)
		s.auto = auto
		qpm := NewQPM(auto, workers, rec)
		s.qpms = append(s.qpms, qpm)
		s.server.Register(ServiceName("auto"), qpm)
	}
	// The recorder doubles as the session's telemetry endpoint: metrics,
	// Chrome-trace dumps, and ring stats are scrapable over the same RPC
	// connection the application already holds.
	s.server.Register(trace.ServiceName, &trace.Service{Rec: rec})
	if cfg.UseTCP {
		addr, err := s.server.ListenTCP("127.0.0.1:0")
		if err != nil {
			s.Teardown()
			return nil, err
		}
		s.Addr = addr
	}
	return s, nil
}

// StartUtilizationSampler begins recording per-backend device-utilization
// time series (gauge qfw_utilization{backend=...}, busy fraction across
// each QPM's QRC workers per window). It returns the sampler so callers
// can add further sources; Teardown stops it. A second call returns the
// already-running sampler.
func (s *Session) StartUtilizationSampler(window time.Duration) *trace.UtilSampler {
	s.mu.Lock()
	if s.sampler != nil {
		u := s.sampler
		s.mu.Unlock()
		return u
	}
	u := trace.NewUtilSampler(s.Rec.Metrics(), window)
	s.sampler = u
	s.mu.Unlock()
	for _, q := range s.qpms {
		q := q
		u.Watch(trace.LabeledName("qfw_utilization", "backend", q.Backend()), q.Workers(), q.BusyNS)
	}
	u.Start()
	return u
}

// Scheduler exposes the session's SLURM scheduler (for submitting
// additional jobs in tests and examples).
func (s *Session) Scheduler() *slurm.Scheduler { return s.sched }

// RegisterService exposes an additional handler on the session's DEFw
// endpoint — the hook layers above core (e.g. the multi-tenant serving
// layer) use to register themselves without core importing them.
func (s *Session) RegisterService(name string, h defw.Handler) {
	s.server.Register(name, h)
}

// QPM returns the session's QPM for a backend (nil when absent) so layers
// above core can wrap its queue directly.
func (s *Session) QPM(backend string) *QPM {
	for _, q := range s.qpms {
		if q.Backend() == backend {
			return q
		}
	}
	return nil
}

// Executor returns the live executor behind a backend's QPM (nil when
// absent) — the fault-injection bench wraps it without re-running the
// backend factory.
func (s *Session) Executor(backend string) Executor {
	if q := s.QPM(backend); q != nil {
		return q.exec
	}
	return nil
}

// Drain performs the admission half of a graceful shutdown: every QPM stops
// accepting work immediately and closes its open admission windows, then
// queued and in-flight tasks get up to timeout to finish. It reports whether all queues fully drained; Teardown still
// applies afterwards either way.
func (s *Session) Drain(timeout time.Duration) bool {
	for _, q := range s.qpms {
		q.Quiesce()
	}
	deadline := time.Now().Add(timeout)
	drained := true
	for _, q := range s.qpms {
		remaining := time.Until(deadline)
		if remaining < 0 {
			remaining = 0
		}
		if !q.Drain(remaining) {
			drained = false
		}
	}
	return drained
}

// Backends lists the backends this session serves.
func (s *Session) Backends() []string {
	var names []string
	for _, q := range s.qpms {
		names = append(names, q.Backend())
	}
	sort.Strings(names)
	return names
}

// Connect opens a new DEFw client to the session's services.
func (s *Session) Connect() (*defw.Client, error) {
	var c *defw.Client
	var err error
	if s.useTCP {
		c, err = defw.Dial(s.Addr)
		if err != nil {
			return nil, err
		}
	} else {
		c = defw.NewPipeClient(s.server)
	}
	s.mu.Lock()
	s.clients = append(s.clients, c)
	s.mu.Unlock()
	return c, nil
}

// Frontend connects and wraps a client for the selected backend.
func (s *Session) Frontend(props Properties) (*Frontend, error) {
	found := false
	for _, q := range s.qpms {
		if q.Backend() == props.Backend {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: session has no backend %q (have %v)", props.Backend, s.Backends())
	}
	client, err := s.Connect()
	if err != nil {
		return nil, err
	}
	return NewFrontend(client, props)
}

// Teardown performs the controlled shutdown of Fig. 1 steps 13-14: RPC
// services stop, worker allocations drain, the DVM shuts down, and the
// SLURM job completes.
func (s *Session) Teardown() {
	s.mu.Lock()
	clients := s.clients
	s.clients = nil
	sampler := s.sampler
	s.sampler = nil
	s.mu.Unlock()
	if sampler != nil {
		sampler.Stop()
	}
	for _, c := range clients {
		c.Close()
	}
	if s.server != nil {
		s.server.Close()
	}
	for _, q := range s.qpms {
		q.Close()
	}
	for _, e := range s.execs {
		if closer, ok := e.(io.Closer); ok {
			closer.Close()
		}
	}
	if s.DVM != nil {
		s.DVM.Shutdown()
	}
	if s.Job != nil {
		s.Job.Complete()
	}
}
