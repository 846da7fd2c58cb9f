package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exper"
)

// FuzzFleetSpec drives arbitrary JSON through the fleet spec decoder
// and resolver, as POST /v1/fleets does. Resolving must not panic; it
// either fails or yields a fleet whose re-marshaled spec — the form a
// job journal stores and a restarted server resumes from — decodes and
// resolves again to the same shape. Inputs that ask for more than a few
// populations, devices, trace variants, events, samples or trace seconds
// are skipped so each iteration stays cheap; the bounds on those sizes
// have their own tests.
func FuzzFleetSpec(f *testing.F) {
	seeds := []*Spec{
		testSpec(),
		{Populations: []PopulationSpec{{Count: 3}}},
		{Epochs: -1, Populations: []PopulationSpec{{Count: 1}}},
		{Populations: []PopulationSpec{{Count: 1, Churn: []ChurnSpec{{Kind: ChurnLeave, Prob: 1.5}}}}},
		{Name: "emp", BaseSeed: 3, Epochs: 2, Events: 6, Samples: 32,
			Populations: []PopulationSpec{{Name: "emp", Count: 8, Empirical: true, TraceVariants: 2}}},
		{Populations: []PopulationSpec{{Count: 4, TraceVariants: 2, Churn: []ChurnSpec{
			{Kind: ChurnLeave, Prob: 0.5},
			{Kind: ChurnDegrade, Prob: 0.2, Rate: 0.1, MinFrac: 0.5},
			{Kind: ChurnJoin, Prob: 0.9},
		}}}},
		{Populations: []PopulationSpec{{Count: 2, Trace: exper.TraceSpec{Name: "k", Kind: exper.TraceKinetic, Seconds: 600}}}},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The crash-smoke fleet (scripts/crash_smoke.sh) and malformed bodies.
	f.Add([]byte(`{"name":"fleet-smoke","baseSeed":5,"epochs":60,"snapshotEvery":1,"events":120,"populations":[{"name":"pop","count":512,"traceVariants":8}]}`))
	f.Add([]byte(`{"populations":[{"count":2,"trace":{"kind":"solar","seconds":-5}}]}`))
	f.Add([]byte(`{"populations":[{"count":2,"energyBins":-1}]}`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil || !cheapSpec(&s) {
			return
		}
		fl, err := s.Fleet()
		if err != nil {
			return
		}
		line, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("resolved spec does not marshal: %v", err)
		}
		var back Spec
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("re-marshaled spec %s does not decode: %v", line, err)
		}
		fl2, err := back.Fleet()
		if err != nil {
			t.Fatalf("re-marshaled spec %s does not resolve: %v", line, err)
		}
		if fl2.Devices != fl.Devices || fl2.Epochs != fl.Epochs || fl2.Events != fl.Events ||
			fl2.SnapshotCount() != fl.SnapshotCount() || len(fl2.Pops) != len(fl.Pops) {
			t.Fatalf("re-marshaled spec %s resolves to a different fleet", line)
		}
		for i, p := range fl.Pops {
			q := fl2.Pops[i]
			if q.Name != p.Name || q.Count != p.Count || len(q.Traces) != len(p.Traces) || q.Mode != p.Mode {
				t.Fatalf("re-marshaled spec %s: population %d differs", line, i)
			}
		}
		for _, p := range fl.Pops {
			if p.EnergyBins < 1 || p.PowerBins < 1 || p.ConfBins < 1 {
				t.Fatalf("spec %s resolved with bins %d/%d/%d", line, p.EnergyBins, p.PowerBins, p.ConfBins)
			}
		}
	})
}

// cheapSpec reports whether resolving s stays cheap: each population
// builds its own deployment (about 30 ms), and the sizes below bound the
// rest. Trace files are skipped too: a fuzzed path could name any file.
func cheapSpec(s *Spec) bool {
	if len(s.Populations) > 2 || s.Events > 1000 || s.Samples > 64 {
		return false
	}
	for _, p := range s.Populations {
		if p.Count > 1000 || p.TraceVariants > 8 || p.Trace.Seconds > 7200 || p.Trace.Path != "" {
			return false
		}
	}
	return true
}
