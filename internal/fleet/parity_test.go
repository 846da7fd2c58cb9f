package fleet

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exper"
	"repro/internal/tensor"
)

// TestFleetMatchesRuntime pins the fleet engine to core.Runtime: a
// one-device population and a Runtime built for the same device,
// capacitor, bins, trace, schedule and seed must make the same decisions
// event for event. Each epoch's processed, correct, exit histogram and
// harvested energy must match exactly, and so must both Q-tables, bit
// for bit. Inference energy is summed in a different order (the fleet
// keeps one running sum per device, the test sums per event), so it
// matches to rounding.
func TestFleetMatchesRuntime(t *testing.T) {
	const epochs = 6
	for _, tc := range []struct {
		name      string
		mode      core.PolicyMode
		empirical bool
		events    int
	}{
		{"q-learning/surrogate", core.PolicyQLearning, false, 40},
		{"static-lut/surrogate", core.PolicyStaticLUT, false, 40},
		{"q-learning/empirical", core.PolicyQLearning, true, 10},
		{"static-lut/empirical", core.PolicyStaticLUT, true, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.empirical && testing.Short() {
				t.Skip("empirical parity is slow")
			}
			s := &Spec{
				BaseSeed: 11,
				Epochs:   epochs,
				Events:   tc.events,
				Samples:  24,
				Populations: []PopulationSpec{{
					Count:     1,
					Exit:      exper.ExitSpec{Mode: tc.mode},
					Empirical: tc.empirical,
				}},
			}
			f, err := s.Fleet()
			if err != nil {
				t.Fatalf("Fleet: %v", err)
			}
			p := f.Pops[0]
			const di = 0
			gidx := uint64(p.Start + di)

			// The device's schedule, rebuilt the way the worker builds it.
			tr := p.Traces[0]
			var sr tensor.RNG
			sr.Reseed(exper.DeriveSeed(f.BaseSeed, gidx, saltSched))
			times := make([]int, f.Events)
			for i := range times {
				times[i] = sr.Intn(tr.Duration())
			}
			slices.Sort(times)
			sched := &energy.Schedule{Events: make([]energy.Event, f.Events)}
			for i, tt := range times {
				sched.Events[i] = energy.Event{T: tt, Class: i % f.EventClasses, SampleIndex: -1}
			}
			if tc.empirical {
				for i := range sched.Events {
					sched.Events[i].SampleIndex = sr.Intn(f.TestSet.Len())
				}
			}

			storage := p.Storage
			cfg := core.RuntimeConfig{
				Mode:       p.Mode,
				Device:     p.Device,
				Storage:    &storage,
				EnergyBins: p.EnergyBins,
				PowerBins:  p.PowerBins,
				ConfBins:   p.ConfBins,
				// core seeds its policy stream with Seed+0xc0fe.
				Seed: exper.DeriveSeed(f.BaseSeed, gidx, saltDevice) - 0xc0fe,
			}
			if tc.empirical {
				cfg.TestSet = f.TestSet
				cfg.Backend = core.BackendPlan
			}
			rt, err := core.NewRuntime(p.Deployed, cfg)
			if err != nil {
				t.Fatalf("NewRuntime: %v", err)
			}

			a := newArena(f, p, 1)
			w := worker{f: f}
			m := len(p.Deployed.ExitFLOPs)
			for ep := 0; ep < f.Epochs; ep++ {
				w.runChunk(job{p: p, a: a, lo: di, hi: di + 1, epoch: ep})

				rt.SetExploration(popEpsilon(p, ep, f.Epochs))
				rep, err := rt.Run(tr, sched)
				if err != nil {
					t.Fatalf("epoch %d: Run: %v", ep, err)
				}
				var processed, correct uint32
				var energyMJ float64
				hist := make([]uint32, m)
				for _, o := range rep.Outcomes {
					if !o.Processed {
						continue
					}
					processed++
					if o.Correct {
						correct++
					}
					hist[o.Exit]++
					energyMJ += o.EnergyMJ
				}

				if got, want := a.events[di], uint32(len(rep.Outcomes)); got != want {
					t.Fatalf("epoch %d: events %d, runtime %d", ep, got, want)
				}
				if a.processed[di] != processed || a.correct[di] != correct {
					t.Fatalf("epoch %d: fleet processed/correct %d/%d, runtime %d/%d",
						ep, a.processed[di], a.correct[di], processed, correct)
				}
				if got := a.exits[di*m : (di+1)*m]; !slices.Equal(got, hist) {
					t.Fatalf("epoch %d: fleet exit histogram %v, runtime %v", ep, got, hist)
				}
				if a.harvestMJ[di] != rep.HarvestedMJ {
					t.Fatalf("epoch %d: fleet harvested %v mJ, runtime %v", ep, a.harvestMJ[di], rep.HarvestedMJ)
				}
				if d := math.Abs(a.energyMJ[di] - energyMJ); d > 1e-12*math.Max(energyMJ, 1) {
					t.Fatalf("epoch %d: fleet energy %v mJ, runtime %v", ep, a.energyMJ[di], energyMJ)
				}
				exitTab, incrTab := rt.ExitAgent().Table, rt.IncrementalAgent().Table
				for i, q := range a.exitQ[di*p.exitStride : (di+1)*p.exitStride] {
					if want := exitTab.Q(i/m, i%m); math.Float64bits(q) != math.Float64bits(want) {
						t.Fatalf("epoch %d: exit Q[%d] fleet %v, runtime %v", ep, i, q, want)
					}
				}
				for i, q := range a.incrQ[di*p.incrStride : (di+1)*p.incrStride] {
					if want := incrTab.Q(i/2, i%2); math.Float64bits(q) != math.Float64bits(want) {
						t.Fatalf("epoch %d: incremental Q[%d] fleet %v, runtime %v", ep, i, q, want)
					}
				}
				if processed == 0 {
					t.Fatalf("epoch %d processed nothing; the comparison is vacuous", ep)
				}
				a.zeroIntervals()
			}
		})
	}
}

// TestRunEpisodeAllocs holds the fleet's innermost loop to zero heap
// allocations once a worker is warm. The //ehlint:hotpath lint checks
// each function body on its own; this catches what it cannot see, such
// as an argument to the core kernel escaping to the heap.
func TestRunEpisodeAllocs(t *testing.T) {
	s := &Spec{BaseSeed: 5, Epochs: 2, Events: 40, Populations: []PopulationSpec{{Count: 4, TraceVariants: 2}}}
	f, err := s.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	p := f.Pops[0]
	a := newArena(f, p, 1)
	w := worker{f: f}
	w.runChunk(job{p: p, a: a, lo: 0, hi: p.Count, epoch: 0})
	di := 0
	allocs := testing.AllocsPerRun(100, func() {
		w.runEpisode(p, a, di, uint64(p.Start+di), 1)
		di = (di + 1) % p.Count
	})
	if allocs != 0 {
		t.Fatalf("runEpisode allocates %v times per episode, want 0", allocs)
	}
	if a.processed[0] == 0 {
		t.Fatal("episodes processed nothing")
	}
}
