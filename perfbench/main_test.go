package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// inputDigest hashes everything a workload generates from its seed: the
// circuits, options and request seeds the program will receive.
func inputDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	h := sha256.New()
	writeMotifs := func(ms []motif) {
		for _, m := range ms {
			qasm, err := m.circ.ToQASM()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s|%s|%s|%d|%d|%s\n", m.name, m.backend, m.sub, m.shots, m.maxBond, qasm)
		}
	}
	switch w := workloadSet[name](seed).(type) {
	case *motifLoop:
		writeMotifs(w.motifs)
		for i := 0; i < 64; i++ {
			fmt.Fprintf(h, "%d,", w.seeds.next())
		}
		fmt.Fprintf(h, "replay %d", w.replay)
	case *servedMix:
		writeMotifs(w.in.motifs)
		fmt.Fprintf(h, "%v %v %v", w.in.hot, w.in.qubo.Q, *w.in.obs)
		qasm, err := w.in.ansatz.ToSymbolicQASM()
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(qasm))
		for c := 0; c < mixTenants; c++ {
			for r := 0; r < 8; r++ {
				fmt.Fprintf(h, "%v", w.in.round(c))
			}
		}
	case *dqaoaSolve:
		for i := range w.qs {
			fmt.Fprintf(h, "%v %+v", w.qs[i].Q, w.cfgs[i])
		}
	default:
		t.Fatalf("no digest for workload %s", name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := inputDigest(t, name, 7), inputDigest(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs (%s vs %s)", name, a, b)
		}
		if c := inputDigest(t, name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{Start: ms(0), End: ms(10)}
	kids := []span{
		{Start: ms(1), End: ms(3)},
		{Start: ms(2), End: ms(4)}, // overlaps the first
		{Start: ms(6), End: ms(7)},
		{Start: ms(9), End: ms(12)}, // clipped to the parent
	}
	if got, want := covered(parent, kids), ms(3+1+1); got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered with no children = %v, want 0", got)
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []workloadDoc `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	d := describe()
	if fmt.Sprint(b.Workloads) != fmt.Sprint(d.Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", b.Workloads, d.Workloads)
	}
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark has %d", len(b.PerLayer), len(layerTable))
	}
	for i, m := range layerTable {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, got, m)
		}
	}
}

func TestMetricsDocIsCurrent(t *testing.T) {
	data, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := mainErr([]string{"--describe"}, &out); code != 0 {
		t.Fatalf("--describe exited %d", code)
	}
	if string(data) != out.String() {
		t.Fatalf("metrics.json is stale; regenerate with --describe:\n%s", out.String())
	}
}

// TestEveryMetricIsEmitted runs every workload for one second, untraced
// and traced, and checks the result line: correct, and exactly the
// metrics BENCHMARK.json names, with their units.
func TestEveryMetricIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("QFW_TUNE", "deterministic")
	t.Setenv("QFW_COST", "deterministic")
	t.Setenv("QFW_FAULTS", "")
	os.Unsetenv("QFW_FAULTS")
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	b := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0"}
			if traced {
				args[len(args)-1] = "1"
			}
			var out bytes.Buffer
			if code := mainErr(args, &out); code != 0 {
				t.Fatalf("%v exited %d:\n%s", args, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var got []string
			for k, m := range res.Metrics {
				got = append(got, k)
				if unit, ok := want[traced][k]; !ok || unit != m.Unit {
					t.Errorf("%v: metric %s [%s] is not in BENCHMARK.json with that unit", args, k, m.Unit)
				}
			}
			if len(got) != len(want[traced]) {
				sort.Strings(got)
				t.Errorf("%v: emitted %d metrics %v, BENCHMARK.json names %d", args, len(got), got, len(want[traced]))
			}
		}
	}
}
