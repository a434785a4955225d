package backends

import (
	"reflect"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/serve"
	"qfw/internal/workloads"
)

// planCount is how many reusable execution plans the dense and MPS
// engines' parse caches have built: fusion plans, plus compiled MPS (and
// tile) schedules as memos.
func planCount(s *core.Session) int64 {
	var n int64
	for _, pc := range []*core.ParseCache{s.Executor("aer").(*aer).cache, s.Executor("nwqsim").(*nwqsim).cache} {
		n += pc.Fusions() + pc.Memos()
	}
	return n
}

// TestSingleRunPathsAgree pins the one-job-type contract: at a fixed seed a
// single run gives bit-identical counts and expectation values through
// QPM.Submit, Frontend.Run, Frontend.RunBatch with one nil binding, and
// the serving layer; its TaskID is what Delete takes; and repeated single
// runs of one spec reuse one cached plan instead of re-planning per run.
func TestSingleRunPathsAgree(t *testing.T) {
	s := launch(t)
	cases := []struct {
		backend, sub string
		circ         *circuit.Circuit
	}{
		{"aer", "statevector", workloads.TFIM(8, 2, 1, 0.1)},
		{"aer", "matrix_product_state", workloads.TFIM(16, 2, 1, 0.1)},
		{"nwqsim", "OpenMP", workloads.TFIM(10, 2, 1, 0.1)},
		{"auto", "", workloads.TFIM(9, 2, 1, 0.1)},
	}
	for _, tc := range cases {
		t.Run(tc.backend+"/"+tc.sub, func(t *testing.T) {
			n := tc.circ.NQubits
			fields := make([]float64, n)
			for i := range fields {
				fields[i] = 1
			}
			opts := core.RunOptions{Shots: 128, Seed: 42, Subbackend: tc.sub, Observable: &core.Observable{Fields: fields}}
			spec, err := core.SpecFromCircuit(tc.circ)
			if err != nil {
				t.Fatal(err)
			}
			q := s.QPM(tc.backend)
			direct := func() *core.Result {
				id, err := q.Submit(spec, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := q.Wait(id)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			// Five single runs of one spec build one plan.
			before := planCount(s)
			ref := direct()
			for i := 0; i < 4; i++ {
				direct()
			}
			if got := planCount(s) - before; got != 1 {
				t.Fatalf("5 single runs of one spec built %d plans, want 1", got)
			}

			f, err := s.Frontend(core.Properties{Backend: tc.backend, Subbackend: tc.sub})
			if err != nil {
				t.Fatal(err)
			}
			run, err := f.Run(tc.circ, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Delete(run.TaskID); err != nil {
				t.Fatalf("Delete(%q) of a single run: %v", run.TaskID, err)
			}
			batch, err := f.RunBatch(tc.circ, []core.Bindings{nil}, opts)
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(q, serve.Config{}, s.Rec)
			defer srv.Close()
			served, errs, _, err := srv.Exec("t", spec, nil, opts)
			if err != nil || errs[0] != "" {
				t.Fatalf("serve: %v %v", err, errs)
			}

			for name, got := range map[string]*core.Result{"Frontend.Run": run, "Frontend.RunBatch": batch[0], "serve": served[0]} {
				if !reflect.DeepEqual(got.Counts, ref.Counts) {
					t.Fatalf("%s counts differ from QPM.Submit:\n%v\n%v", name, got.Counts, ref.Counts)
				}
				if got.ExpVal == nil || *got.ExpVal != *ref.ExpVal {
					t.Fatalf("%s expval %v, QPM.Submit %v", name, got.ExpVal, *ref.ExpVal)
				}
				if got.Route != ref.Route {
					t.Fatalf("%s route %q, QPM.Submit %q", name, got.Route, ref.Route)
				}
			}
		})
	}
}
