package serve

import (
	"testing"
	"time"

	"qfw/internal/core"
	"qfw/internal/trace"
)

// TestServeTimingsBreakdownSumsToTotal pins the end-to-end Timings
// contract through the serving layer: every reported component is
// non-negative and TotalMS is exactly the component sum, for both the
// executed (miss) and replayed (hit) paths.
func TestServeTimingsBreakdownSumsToTotal(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{})
	sp := testSpec("breakdown")
	opts := core.RunOptions{Shots: 16, Seed: 3}

	miss := mustExec(t, s, "a", sp, nil, opts)[0].Timings
	if miss.CacheHit {
		t.Fatalf("first run reported a cache hit: %+v", miss)
	}
	if miss.CacheLookupMS < 0 || miss.CoalesceWaitMS < 0 || miss.QueueMS < 0 ||
		miss.ExecMS < 0 || miss.RetryBackoffMS < 0 {
		t.Fatalf("negative timing component: %+v", miss)
	}
	if miss.Attempts != 1 {
		t.Fatalf("clean execution reported %d attempts, want 1", miss.Attempts)
	}
	if miss.TotalMS != miss.Sum() {
		t.Fatalf("TotalMS %v != component sum %v (%+v)", miss.TotalMS, miss.Sum(), miss)
	}

	hit := mustExec(t, s, "a", sp, nil, opts)[0].Timings
	if !hit.CacheHit {
		t.Fatalf("replay not marked as cache hit: %+v", hit)
	}
	if hit.ExecMS != 0 || hit.QueueMS != 0 || hit.CoalesceWaitMS != 0 || hit.Attempts != 0 {
		t.Fatalf("replay carries execution timings: %+v", hit)
	}
	if hit.CacheLookupMS < 0 || hit.TotalMS != hit.Sum() {
		t.Fatalf("replay timing accounting broken: %+v", hit)
	}

	// A windowed, mergeable element reports the window's hold as
	// CoalesceWaitMS; QueueMS starts once its job is ready.
	w := newServe(t, &fakeExec{deterministic: true}, 2, Config{Window: 5 * time.Millisecond})
	held := mustExec(t, w, "a", sp, nil, core.RunOptions{Shots: 16})[0].Timings
	if held.CoalesceWaitMS <= 0 || held.QueueMS < 0 || held.TotalMS != held.Sum() {
		t.Fatalf("windowed element timings %+v, want CoalesceWaitMS > 0 and an exact sum", held)
	}

	// A direct submit is ready at once: no coalesce wait.
	q := core.NewQPM(&fakeExec{deterministic: true}, 1, nil)
	defer q.Close()
	id, err := q.Submit(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Timings; d.CoalesceWaitMS != 0 || d.QueueMS < 0 || d.TotalMS != d.Sum() {
		t.Fatalf("direct run timings %+v, want CoalesceWaitMS == 0 and an exact sum", d)
	}
}

// TestServeMetricsCountHitsMissesAndRequests checks that the serving
// layer's typed metrics agree exactly with its Stats counters after a
// miss/hit pair: one miss, one hit, one dispatched element, two request
// latencies observed, and one QPM task executed.
func TestServeMetricsCountHitsMissesAndRequests(t *testing.T) {
	f := &fakeExec{deterministic: true}
	q := core.NewQPM(f, 2, nil)
	defer q.Close()
	s := New(q, Config{}, nil)
	defer s.Close()
	met := q.Recorder().Metrics()
	sp := testSpec("obs-metrics")
	opts := core.RunOptions{Shots: 8, Seed: 2}

	for i := 0; i < 2; i++ {
		results, errs, _, err := s.Exec("a", sp, nil, opts)
		if err != nil || errs[0] != "" || results[0] == nil {
			t.Fatalf("exec %d: %v %v", i, err, errs)
		}
	}

	counter := func(base string) int64 {
		return met.Counter(trace.LabeledName(base, "backend", "fake")).Value()
	}
	if got := counter("qfw_serve_cache_misses_total"); got != 1 {
		t.Fatalf("misses counter %d, want 1", got)
	}
	if got := counter("qfw_serve_cache_hits_total"); got != 1 {
		t.Fatalf("hits counter %d, want 1", got)
	}
	if got := counter("qfw_serve_served_total"); got != 1 {
		t.Fatalf("served counter %d, want 1 (only the miss dispatched)", got)
	}
	if got := counter("qfw_qpm_tasks_total"); got != 1 {
		t.Fatalf("qpm task counter %d, want 1", got)
	}
	hReq := met.Histogram(trace.LabeledName("qfw_serve_request_ms", "backend", "fake"))
	if hReq.Count() != 2 {
		t.Fatalf("request histogram observed %d, want 2 (hit and miss)", hReq.Count())
	}
	hExec := met.Histogram(trace.LabeledName("qfw_qpm_exec_ms", "backend", "fake"))
	if hExec.Count() != 1 {
		t.Fatalf("exec histogram observed %d, want 1", hExec.Count())
	}
}

// TestServeSoakKeepsRecorderBounded pushes hundreds of uncacheable
// requests through a serving layer wired to a tiny span ring and checks
// the ring honors its bound while the drop accounting stays consistent —
// the daemon-lifetime memory guarantee, at test scale.
func TestServeSoakKeepsRecorderBounded(t *testing.T) {
	const cap = 64
	rec := trace.NewRecorderCap(cap)
	f := &fakeExec{deterministic: true}
	q := core.NewQPM(f, 2, rec)
	defer q.Close()
	s := New(q, Config{CacheCap: -1}, rec)
	defer s.Close()
	sp := testSpec("soak")

	for i := 0; i < 300; i++ {
		results, errs, _, err := s.Exec("a", sp, nil, core.RunOptions{Shots: 4})
		if err != nil || errs[0] != "" || results[0] == nil {
			t.Fatalf("soak request %d: %v %v", i, err, errs)
		}
	}
	st := rec.Stats()
	if st.Retained > cap {
		t.Fatalf("ring retained %d spans over cap %d", st.Retained, cap)
	}
	if st.Recorded < 300 {
		t.Fatalf("recorded %d spans for 300 executed requests", st.Recorded)
	}
	if st.Recorded != st.Dropped+int64(st.Retained) {
		t.Fatalf("drop accounting inconsistent: %+v", st)
	}
}
