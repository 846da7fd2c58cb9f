package core

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/compress"
)

// TestRuntimeDeterminism: identical seeds must produce bit-identical
// simulation outcomes — the property every paper bench and grid
// relies on for reproducibility.
func TestRuntimeDeterminism(t *testing.T) {
	run := func() []int {
		sc := smallScenario(99)
		d, err := BuildDeployed(compress.Fig1bNonuniform(), 99)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Storage: sc.Storage, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(sc.Trace, sc.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		var sig []int
		for _, o := range rep.Outcomes {
			v := o.Exit
			if o.Correct {
				v += 100
			}
			sig = append(sig, v)
		}
		return sig
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("different outcome counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestScenarioDeterminism: DefaultScenario is a pure function of the seed.
func TestScenarioDeterminism(t *testing.T) {
	a := DefaultScenario(7)
	b := DefaultScenario(7)
	if a.Trace.TotalEnergy() != b.Trace.TotalEnergy() {
		t.Fatal("traces differ for the same seed")
	}
	for i := range a.Schedule.Events {
		if a.Schedule.Events[i] != b.Schedule.Events[i] {
			t.Fatal("schedules differ for the same seed")
		}
	}
	c := DefaultScenario(8)
	if a.Trace.TotalEnergy() == c.Trace.TotalEnergy() {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestBaselineDeterminism: baseline simulation is seed-deterministic too.
func TestBaselineDeterminism(t *testing.T) {
	sc := smallScenario(5)
	run := func() float64 {
		rep, err := RunBaseline(sonicForTest(), sc.Trace, sc.Schedule, BaselineConfig{
			Device: sc.Device, Storage: sc.Storage, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.AccuracyAllEvents()
	}
	if run() != run() {
		t.Fatal("baseline runs diverge under the same seed")
	}
}

func sonicForTest() baselines.Baseline { return baselines.SonicNet() }
