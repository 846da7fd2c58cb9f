package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	ehinfer "repro"
)

// TestWorkloadsPrintEveryMetric runs each workload tiny, untraced and
// traced, and checks that every named metric is printed with its unit
// and lands in the result line.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var log bytes.Buffer
			res, err := run(context.Background(), w, runConfig{seed: 1, seconds: 1, tiny: true}, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(log.String(), d.name) {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, d.name)
				}
			}
		}
	}
}

// TestCorruptedResponseIsAFailure alters one reply's predicted class;
// the prediction oracle must count exactly that request as failed.
func TestCorruptedResponseIsAFailure(t *testing.T) {
	w, _ := lookupWorkload("infer-single")
	rc := runConfig{seed: 1, seconds: 1, tiny: true, hooks: hooks{corrupt: func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"class":`), []byte(`"class":1`), 1)
	}}}
	res, err := run(context.Background(), w, rc, false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want one failure", res.Correct, res.Failed)
	}
}

// TestAlteredDigestIsAFailure records a wrong grid digest beside the
// right fleet digest; the digest oracle must count one failure.
func TestAlteredDigestIsAFailure(t *testing.T) {
	in := simulateInputs(1, true)
	f, err := in.spec.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ehinfer.NewSession(ehinfer.WithWorkers(1)).RunFleet(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := fleetJSONDigest(fr)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("simulate")
	rc := runConfig{seed: 1, seconds: 1, tiny: true, hooks: hooks{
		digests: map[uint64]digestSet{1: {Grids: []string{strings.Repeat("0", 64)}, Fleet: fleet}},
	}}
	res, err := run(context.Background(), w, rc, false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want one failure", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metric tables the program prints from naming the same metrics.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		json []benchMetric
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	if _, err := recordedDigests(); err != nil {
		t.Error(err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, p := range parent {
		faster[i], slower[i] = p*0.8, p*1.3
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{parent, "no worse"},
		{faster, "improved"},
		{slower, "worse"},
	} {
		if got, _, _ := verdict(parent, c.change, false, 0.1); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
}
