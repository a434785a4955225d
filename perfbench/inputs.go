package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/statevec"
	"qfw/internal/workloads"
)

// motif is one named circuit the benchmark submits, with where and how it
// runs. The program sees only the generated circuit and options.
type motif struct {
	name    string
	circ    *circuit.Circuit
	backend string
	sub     string
	shots   int
	maxBond int
	ghz     bool // outcomes must be all-0 or all-1
}

func (m motif) opts(seed int64) core.RunOptions {
	return core.RunOptions{Shots: m.shots, Seed: seed, Subbackend: m.sub, MaxBond: m.maxBond}
}

// motifSet builds the paper's four sampling motifs at n qubits on
// aer/statevector with 64 shots: GHZ, TFIM (2 steps), HamSim (1 step) and
// ring-QAOA (p=1).
func motifSet(n int) []motif {
	ms := []motif{
		{name: fmt.Sprintf("ghz-%d", n), circ: workloads.GHZ(n), ghz: true},
		{name: fmt.Sprintf("tfim-%d", n), circ: workloads.TFIM(n, 2, 0, 0)},
		{name: fmt.Sprintf("hamsim-%d", n), circ: workloads.HamSim(n, 1)},
		{name: fmt.Sprintf("qaoa-ring-%d", n), circ: workloads.RingQAOA(n, 1)},
	}
	for i := range ms {
		ms[i].backend, ms[i].sub, ms[i].shots = "aer", "statevector", 64
	}
	return ms
}

// seedStream yields one client's per-request seeds: a pure function of the
// workload seed and the client index, never 0 (0 means unseeded).
type seedStream struct{ rng *rand.Rand }

func newSeedStream(seed int64, client int) *seedStream {
	return &seedStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))}
}

func (s *seedStream) next() int64 { return s.rng.Int63n(1<<40) + 1 }

// unmeasured returns a copy of c without its measurements, for exact
// references.
func unmeasured(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NQubits)
	for _, g := range c.Gates {
		if g.Kind != circuit.KindMeasure {
			out.Append(g)
		}
	}
	return out
}

// exactProbs is the exact outcome distribution of a bound circuit, from a
// direct statevector run.
func exactProbs(c *circuit.Circuit) []float64 {
	st, _ := statevec.RunFused(unmeasured(c), nil, runtime.GOMAXPROCS(0), rand.New(rand.NewSource(1)))
	p := st.Probabilities()
	st.Release()
	return p
}

// sampleFidelity is the classical fidelity (Bhattacharyya coefficient)
// between sampled counts and the exact distribution: 1 when the histogram
// matches the reference, lower as it drifts.
func sampleFidelity(counts map[string]int, probs []float64) float64 {
	var total int
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	var bc float64
	for key, n := range counts {
		bc += math.Sqrt(probs[statevec.ParseBits(key)] * float64(n) / float64(total))
	}
	return bc
}

// countsDigest is an order-independent digest of a histogram.
func countsDigest(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, counts[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkSampled runs the output checks every sampled result gets and
// returns whether all passed: counts sum to shots, GHZ outcomes are only
// all-0 or all-1, and the timing breakdown sums to its total.
func (h *harness) checkSampled(m motif, res *core.Result) bool {
	total := 0
	ghzOK := true
	for key, n := range res.Counts {
		total += n
		if m.ghz && strings.Trim(key, "0") != "" && strings.Trim(key, "1") != "" {
			ghzOK = false
		}
	}
	ok := h.check("counts_sum_to_shots", total == m.shots)
	if m.ghz {
		ok = h.check("ghz_all_equal", ghzOK) && ok
	}
	return h.checkTimings(res) && ok
}

// checkTimings checks that a result's timing breakdown sums to its total.
func (h *harness) checkTimings(res *core.Result) bool {
	return h.check("timings_sum_to_total", res.Timings.Sum() == res.Timings.TotalMS)
}
