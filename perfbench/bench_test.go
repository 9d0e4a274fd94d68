package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// logWriter sends a run's human-readable lines to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func testOptions(t *testing.T, trace bool) options {
	// A budget this small runs the minimum: two untraced jobs, or one
	// untraced and one traced.
	return options{seed: 5, seconds: 0.001, trace: trace, scratch: t.TempDir(), log: logWriter{t}}
}

func mustWorkload(t *testing.T, name string) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestSpecsMatchBenchmarkJSON keeps the metrics and workloads the program
// reports in step with the ones BENCHMARK.json declares.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what       string
		json, prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.prog[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.what, i, c.json[i], c.prog[i])
			}
		}
	}
}

// TestSmoke runs every workload at the minimum budget: the outputs must
// pass their checks and every end-to-end metric must be reported and
// nonzero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, testOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, s := range endToEnd {
				m, ok := rep.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %+v (reported %v)", s.Name, m, ok)
				}
			}
		})
	}
}

// TestTracedDigestMatchesUntraced: the wrappers a traced run installs must
// not change what the program computes.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, name := range []string{"train-6cnn", "ingest"} {
		t.Run(name, func(t *testing.T) {
			defer configure()()
			w, o := mustWorkload(t, name), testOptions(t, false)
			run := func(tr *tracer) job {
				var j job
				var err error
				if w.arch != "" {
					j, err = trainJob(w, o.seed, tr)
				} else {
					j, err = ingestJob(w, o, tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(j.problems) > 0 {
					t.Fatalf("checks failed: %v", j.problems)
				}
				return j
			}
			plain, traced := run(nil), run(newTracer())
			if plain.digest != traced.digest {
				t.Fatalf("traced digest %#x, untraced %#x", traced.digest, plain.digest)
			}
		})
	}
}

// TestTraceReportsEveryLayerMetric runs the traced path end to end.
func TestTraceReportsEveryLayerMetric(t *testing.T) {
	rep, err := runWorkload(mustWorkload(t, "ingest-durable"), testOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatal("traced run failed its checks")
	}
	for _, s := range perLayer {
		if _, ok := rep.Metrics[s.Name]; !ok {
			t.Errorf("%s not reported", s.Name)
		}
	}
	for _, name := range []string{"checkpoint.saves_per_commit", "fed.commit_tail_ms_p50", "fed.encode_ms", "tensor.parallel_ns"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on ingest-durable", name, rep.Metrics[name].Value)
		}
	}
}

// TestBandRejectsCorruptedGlobal: any weighted mean of the peers' vectors
// passes the [min, max] check; a global with one coordinate pushed out of
// the band, or made NaN, fails it, and checkIngest reports the peer.
func TestBandRejectsCorruptedGlobal(t *testing.T) {
	const n = 4096
	pv := makePeerVectors(9, 2, n)
	mean := func(w0, w1 float32) []float32 {
		g := make([]float32, n)
		for j := range g {
			g[j] = (w0*pv.vecs[0][j] + w1*pv.vecs[1][j]) / (w0 + w1)
		}
		return g
	}
	for _, w := range [][2]float32{{1, 1}, {1, 2}, {2, 1}, {1, 0}, {0, 1}} {
		if j := pv.outside(mean(w[0], w[1])); j >= 0 {
			t.Fatalf("weights %v: valid mean rejected at coordinate %d", w, j)
		}
	}
	for _, corrupt := range []func(g []float32, j int){
		func(g []float32, j int) { g[j] = pv.hi[j] + 1e-3 },
		func(g []float32, j int) { g[j] = pv.lo[j] - 1e-3 },
		func(g []float32, j int) { g[j] = float32(math.NaN()) },
	} {
		g := mean(1, 2)
		corrupt(g, 1234)
		if j := pv.outside(g); j != 1234 {
			t.Fatalf("corrupted global: outside = %d, want 1234", j)
		}
	}
	if pv.outside(make([]float32, n-1)) < 0 {
		t.Fatal("a global of the wrong length passed")
	}
	peers := make([]peerResult, 2)
	for i := range peers {
		for v := uint64(1); v <= ingestUploads; v++ {
			peers[i].versions = append(peers[i].versions, v)
		}
		peers[i].final, peers[i].finalVer = true, ingestUploads
	}
	if p := checkIngest(peers, 2*ingestUploads, ingestUploads, ingestUploads); len(p) > 0 {
		t.Fatalf("clean session flagged: %v", p)
	}
	peers[1].outOfBand = 1
	if p := checkIngest(peers, 2*ingestUploads, ingestUploads, ingestUploads); len(p) != 1 || !strings.Contains(p[0], "band") {
		t.Fatalf("corrupted global not reported: %v", p)
	}
}
