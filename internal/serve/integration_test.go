package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/defw"

	_ "qfw/internal/backends" // register real executors
)

// TestServeOverSessionRPC drives the serving layer exactly as cmd/qfwd
// wires it: registered beside the raw QPM service on a live session's DEFw
// endpoint, exercised through the typed client, against the real aer
// executor. It pins the acceptance property that a cached replay is
// bit-identical to a recompute.
func TestServeOverSessionRPC(t *testing.T) {
	sess, err := core.Launch(core.Config{
		Machine:  cluster.Frontier(2),
		Backends: []string{"aer"},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	qpm := sess.QPM("aer")
	srv := New(qpm, Config{Window: 2 * time.Millisecond}, sess.Rec)
	defer srv.Close()
	sess.RegisterService(ServiceName("aer"), srv)

	conn, err := sess.Connect()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, "aer", "alice")

	c := circuit.New(3)
	c.H(0).CX(0, 1).CX(1, 2)
	c.MeasureAll()
	c.Name = "ghz"
	spec, err := core.SpecFromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOptions{Shots: 200, Seed: 9}

	r1, info1, err := cl.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info1.CacheHits != 0 {
		t.Fatalf("first run reported %d cache hits", info1.CacheHits)
	}
	r2, info2, err := cl.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info2.CacheHits != 1 {
		t.Fatalf("repeat run reported %d cache hits, want 1", info2.CacheHits)
	}
	if fmt.Sprint(r1.Counts) != fmt.Sprint(r2.Counts) {
		t.Fatalf("cached replay %v != original %v", r2.Counts, r1.Counts)
	}

	// Bit-identical to a recompute on the raw QPM service with the same
	// seed — the cache must be invisible in the physics.
	id, err := qpm.Submit(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := qpm.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(direct.Counts) != fmt.Sprint(r1.Counts) {
		t.Fatalf("served counts %v != direct QPM counts %v", r1.Counts, direct.Counts)
	}

	// A parametric sweep through the serving layer matches the direct batch
	// submission element-for-element.
	p := circuit.New(2)
	p.H(0).RZ(0, circuit.Sym("theta", 1)).CX(0, 1)
	p.MeasureAll()
	p.Name = "sweep"
	pspec, err := core.SpecFromParametric(p)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{{"theta": 0.1}, {"theta": 0.7}, {"theta": 1.3}}
	bopts := core.RunOptions{Shots: 100, Seed: 21}
	served, errs, _, err := cl.RunBatch(pspec, bindings, bopts)
	if err != nil {
		t.Fatal(err)
	}
	bid, err := qpm.SubmitBatch(pspec, bindings, bopts)
	if err != nil {
		t.Fatal(err)
	}
	directRes, directErrs, err := qpm.WaitBatch(bid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bindings {
		if errs[i] != "" || directErrs[i] != "" {
			t.Fatalf("element %d errors: served=%q direct=%q", i, errs[i], directErrs[i])
		}
		if fmt.Sprint(served[i].Counts) != fmt.Sprint(directRes[i].Counts) {
			t.Fatalf("element %d: served %v != direct %v", i, served[i].Counts, directRes[i].Counts)
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits < 1 || st.Served < 4 {
		t.Fatalf("stats over RPC: %+v", st)
	}
	if err := cl.SetTenant("alice", 4, 100); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ten := st.Tenants["alice"]; ten.Weight != 4 || ten.Quota != 100 {
		t.Fatalf("set_tenant not applied: %+v", ten)
	}
}

// TestOverloadErrorSurvivesRPC pins that load shedding stays typed across
// the wire: the flattened error string still satisfies IsOverloaded.
func TestOverloadErrorSurvivesRPC(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	q := core.NewQPM(f, 1, nil)
	defer q.Close()
	defer f.open()
	srv := New(q, Config{QueueCap: 1, Quota: 100}, nil)
	defer srv.Close()

	rpc := defw.NewServer()
	rpc.Register(ServiceName("fake"), srv)
	defer rpc.Close()
	cl := NewClient(defw.NewPipeClient(rpc), "fake", "t")

	sp := testSpec("shed-rpc")
	// Fill the dispatch slot, then the one queue slot.
	go func() {
		_, _, _, _ = srv.Exec("t", sp, nil, core.RunOptions{Shots: 1, Seed: 1})
	}()
	waitFor(t, "first dispatch", func() bool { return f.calls() == 1 })
	go func() {
		_, _, _, _ = srv.Exec("t", sp, nil, core.RunOptions{Shots: 1, Seed: 2})
	}()
	waitFor(t, "saturation", func() bool { return srv.Stats().QueueDepth == 1 })

	_, _, err := cl.Run(sp, core.RunOptions{Shots: 1, Seed: 99})
	if err == nil {
		t.Fatal("over-cap RPC submission succeeded")
	}
	if !core.IsOverloaded(err) {
		t.Fatalf("RPC-flattened shed error %v does not satisfy IsOverloaded", err)
	}
	if d, ok := core.RetryAfterHint(err); !ok || d <= 0 {
		t.Fatalf("client-side shed error carries no retry hint: %v", err)
	}
	f.open()
}

// TestDirectAndServedShareOneBoundAndFairShare: direct Frontend clients are
// the QPM scheduler's tenant "", so they share the one queued-element bound
// and the stride fair share with served tenants. On a one-worker QPM held
// by a blocker, a direct client and two served tenants fill the bound; one
// more submission from any of them sheds, and once released the three equal
// weights interleave, each served once in every three dispatches.
func TestDirectAndServedShareOneBoundAndFairShare(t *testing.T) {
	const bound = 6
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, 1, Config{QueueCap: bound})
	rpc := defw.NewServer()
	rpc.Register(core.ServiceName("fake"), s.qpm)
	defer rpc.Close()
	front, err := core.NewFrontend(defw.NewPipeClient(rpc), core.Properties{Backend: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	direct := circuit.New(1)
	direct.H(0).MeasureAll()
	direct.Name = "direct"

	var wg sync.WaitGroup
	served := func(tenant string, seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, errs, _, err := s.Exec(tenant, testSpec(tenant), nil, core.RunOptions{Shots: 1, Seed: seed}); err != nil || errs[0] != "" {
				t.Errorf("tenant %s: %v %v", tenant, err, errs)
			}
		}()
	}
	served("blocker", 1)
	waitFor(t, "blocker running", func() bool { return f.calls() == 1 })

	var pending []*core.Pending
	for i := 0; i < bound/3; i++ {
		p, err := front.RunAsync(direct, core.RunOptions{Shots: 1, Seed: int64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
		served("a", int64(20+i))
		served("b", int64(30+i))
	}
	waitFor(t, "bound filled", func() bool { return s.Stats().QueueDepth == bound })

	if _, err := front.RunAsync(direct, core.RunOptions{Shots: 1, Seed: 99}); !core.IsOverloaded(err) {
		t.Fatalf("direct submit over the shared bound returned %v, want ErrOverloaded", err)
	}
	for _, tenant := range []string{"a", "b"} {
		if _, _, _, err := s.Exec(tenant, testSpec(tenant), nil, core.RunOptions{Shots: 1, Seed: 99}); !core.IsOverloaded(err) {
			t.Fatalf("tenant %s over the shared bound returned %v, want ErrOverloaded", tenant, err)
		}
	}
	f.open()
	wg.Wait()
	for _, p := range pending {
		if _, err := p.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PeakQueueDepth > bound {
		t.Fatalf("peak queued elements %d exceed the one bound %d", st.PeakQueueDepth, bound)
	}

	order := f.dispatchOrder()[1:] // drop the blocker
	if len(order) != bound {
		t.Fatalf("dispatched %d jobs, want %d (order %v)", len(order), bound, order)
	}
	for i := 0; i < len(order); i += 3 {
		seen := map[string]int{}
		for _, name := range order[i : i+3] {
			seen[name]++
		}
		if seen["direct"] != 1 || seen["a"] != 1 || seen["b"] != 1 {
			t.Fatalf("dispatches %d-%d = %v, want each class once under equal weights (order %v)", i, i+2, order[i:i+3], order)
		}
	}
}
