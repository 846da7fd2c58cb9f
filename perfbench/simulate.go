package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	ehinfer "repro"
)

// digestSet is the SHA-256 of each sub-grid's and of the fleet's result
// JSON, taken at one worker.
type digestSet struct {
	Grids []string `json:"grids"`
	Fleet string   `json:"fleet"`
}

// digests.json holds the digests of the full-size simulate inputs per
// seed. The engines promise bit-identical results at any worker count,
// so every run on a recorded seed must reproduce them.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigests() (map[uint64]digestSet, error) {
	var raw map[string]digestSet
	if err := json.Unmarshal(digestsJSON, &raw); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	out := make(map[uint64]digestSet, len(raw))
	for k, v := range raw {
		seed, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("digests.json: seed %q: %w", k, err)
		}
		out[seed] = v
	}
	return out, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simInputs is one simulate run's grids and fleet, all derived from the
// seed.
type simInputs struct {
	grids []*ehinfer.ExperimentGrid
	spec  *ehinfer.FleetSpec
}

// simulateInputs builds the paper-sweep grid (solar peaks × capacitors ×
// replicate seeds, Q-learning with warm-up plus the three baselines,
// surrogate accuracy), cut along its replicate seeds into sub-grids of
// 200 points, and a fleet shaped like examples/fleet-million:
// Q-learning, static-LUT and churning populations.
func simulateInputs(seed uint64, tiny bool) simInputs {
	peaks := []float64{0.016, 0.024, 0.032, 0.04, 0.05}
	caps := []float64{3, 4.5, 6, 9}
	subGrids, seeds, events := 5, 10, 100
	learn, static, churn, epochs := 8000, 4000, 4000, 4
	if tiny {
		peaks, caps = peaks[:2], caps[:2]
		subGrids, seeds, events = 1, 2, 40
		learn, static, churn, epochs = 200, 100, 100, 2
	}
	var in simInputs
	for s := 0; s < subGrids; s++ {
		// The seed picks the replicate seeds, not the grid's base seed:
		// the base seed also picks the deployment, and one deployment
		// costs visibly more to simulate than another.
		g := ehinfer.PaperSweepGrid(peaks, caps, seeds, events)
		for i := range g.Seeds {
			g.Seeds[i] = seed<<20 | uint64(s*seeds+i)
		}
		in.grids = append(in.grids, g)
	}
	in.spec = &ehinfer.FleetSpec{
		Name:          "perfbench",
		BaseSeed:      seed,
		Epochs:        epochs,
		Events:        20,
		SnapshotEvery: 1,
		Populations: []ehinfer.FleetPopulation{
			{Name: "solar-q", Count: learn, TraceVariants: 64},
			{Name: "static-lut", Count: static, TraceVariants: 64,
				Exit: ehinfer.ExitSpec{Mode: ehinfer.PolicyStaticLUT}},
			{Name: "churny", Count: churn, TraceVariants: 64, Churn: []ehinfer.FleetChurn{
				{Kind: "join", Prob: 0.3},
				{Kind: "leave", Prob: 0.05},
				{Kind: "degrade", Prob: 0.2, Rate: 0.1, MinFrac: 0.4},
			}},
		},
	}
	return in
}

// simStats accumulates the measured rounds.
type simStats struct {
	pointMS                         []float64
	serialTime, gridTime, fleetTime time.Duration
	gridPoints, deviceEpochs        int
	epochMS                         []float64
	allocKB                         float64
}

// runSimulate runs the simulator workload. After set-up and warm-up it
// runs rounds until the run's time is up. Each round sets up afresh,
// then takes the next sub-grid and runs it at one worker, where the time between two
// completed points is the later point's own simulation time, and at one
// worker per CPU, for the digest check; then it runs the fleet at one
// worker. A last fleet run at one worker per CPU checks the fleet's
// digest and gives its parallel efficiency. Both gated figures come from
// one-worker runs: the two vCPUs of a shared host slow each other by
// different amounts from run to run, which moved the parallel fleet
// rate by more than its bound, while one-worker figures held. Rounds mix
// the kinds of work over the whole run, so all see the same mix of the
// machine's fast and slow spells. Every result's digest must match the
// first one-worker result of its input and, on a recorded seed,
// digests.json.
func runSimulate(ctx context.Context, rc *runConfig) (*outcome, error) {
	in := simulateInputs(rc.seed, rc.tiny)
	workers := runtime.NumCPU()
	o := &outcome{values: map[string]float64{}}

	want, haveWant := rc.hooks.digests[rc.seed]
	if rc.hooks.digests == nil && !rc.tiny {
		rec, err := recordedDigests()
		if err != nil {
			return nil, err
		}
		want, haveWant = rec[rc.seed]
	}
	check := func(got, ref string) {
		o.attempted++
		if got != ref {
			o.failed++
		}
	}

	// One set-up comes first and one more opens every round, so that
	// the set-ups spread over the run like the rest of its work;
	// setup_s is their median.
	var setups, resolves []float64
	setup := func() (*ehinfer.Fleet, error) {
		d, resolve, f, err := simulateSetup(ctx, rc.tr, in, workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups, resolves = append(setups, d.Seconds()), append(resolves, ms(resolve))
		return f, nil
	}
	f, err := setup()
	if err != nil {
		return nil, err
	}

	serial := ehinfer.NewSession(ehinfer.WithWorkers(1))
	par := ehinfer.NewSession(ehinfer.WithWorkers(workers))
	warmGrid := *in.grids[0]
	warmGrid.Seeds = warmGrid.Seeds[:1]
	for _, s := range []*ehinfer.Session{serial, par} {
		if _, err := s.RunGrid(ctx, &warmGrid); err != nil {
			return nil, fmt.Errorf("warm-up grid: %w", err)
		}
	}
	warmSpec := *in.spec
	warmSpec.Epochs = 1
	wf, err := warmSpec.Fleet()
	if err != nil {
		return nil, err
	}
	if _, err := par.RunFleet(ctx, wf); err != nil {
		return nil, fmt.Errorf("warm-up fleet: %w", err)
	}

	heap := startHeapSampler()
	gc0 := readRuntime()
	var st simStats
	gridRefs := make([]string, len(in.grids))
	var fleetRef string
	end := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for round := 0; round < len(in.grids) || time.Now().Before(end); round++ {
		sub := round % len(in.grids)
		g := in.grids[sub]
		group := int64(round + 1)
		if _, err := setup(); err != nil {
			return nil, err
		}

		r0 := readRuntime()
		t := time.Now()
		pts, d, err := serialGrid(ctx, serial, g, rc.tr, group)
		if err != nil {
			return nil, err
		}
		st.serialTime += time.Since(t)
		for _, p := range pts {
			o.attempted++
			if p.failed {
				o.failed++
			}
			st.pointMS = append(st.pointMS, p.ms)
		}
		if gridRefs[sub] == "" {
			gridRefs[sub] = d
			if haveWant && sub < len(want.Grids) {
				check(d, want.Grids[sub])
			}
		} else {
			check(d, gridRefs[sub])
		}

		t = time.Now()
		gr, err := par.RunGrid(ctx, g)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t)
		r1 := readRuntime()
		rc.tr.add("exper.grid", group, 0, t, t.Add(wall))
		st.allocKB += allocKBPerOp(r0, r1, 1)
		st.gridTime += wall
		st.gridPoints += len(gr.Results)
		o.attempted += int64(len(gr.Results))
		o.failed += int64(len(gr.Errs()))
		b, err := gr.JSON()
		if err != nil {
			return nil, err
		}
		check(digest(b), gridRefs[sub])

		t = time.Now()
		run := serial.StartFleet(ctx, f)
		fleetID := rc.tr.begin("fleet.run", group, 0, t)
		prev := t
		for range run.Snapshots() {
			now := time.Now()
			st.epochMS = append(st.epochMS, ms(now.Sub(prev)))
			rc.tr.add("fleet.epoch", group, fleetID, prev, now)
			prev = now
		}
		fres, err := run.Wait()
		if err != nil {
			return nil, err
		}
		fwall := time.Since(t)
		rc.tr.finish(fleetID, t.Add(fwall))
		st.fleetTime += fwall
		st.deviceEpochs += f.Devices * f.Epochs
		fd, err := fleetJSONDigest(fres)
		if err != nil {
			return nil, err
		}
		if fleetRef == "" {
			fleetRef = fd
			if haveWant {
				check(fd, want.Fleet)
			}
		} else {
			check(fd, fleetRef)
		}
		heap.endRound()
	}
	gc1 := readRuntime()
	o.values["live_heap_mb"] = heap.Stop()
	o.values["setup_s"] = median(setups)
	o.values["fleet.resolve_ms"] = median(resolves)

	t := time.Now()
	fr, err := par.RunFleet(ctx, f)
	if err != nil {
		return nil, err
	}
	parFleetRate := float64(f.Devices*f.Epochs) / time.Since(t).Seconds()
	fd, err := fleetJSONDigest(fr)
	if err != nil {
		return nil, err
	}
	check(fd, fleetRef)

	fmt.Fprintf(rc.log, "digests at 1 worker, seed %d: grids %v fleet %s\n", rc.seed, gridRefs, fleetRef)
	printTail(rc.log, "one-worker grid point", st.pointMS)
	// Both figures are read on the fast side of short windows: the
	// medians of 50 consecutive grid points, and single fleet epochs.
	// The host's CPUs switched between full speed and about 60% of it
	// every second or so; each run met both, in shares that varied from
	// run to run, and the fastest tenth of the windows still fell in the
	// full-speed spells, where the run-wide median did not.
	epochRates := make([]float64, len(st.epochMS))
	for i, e := range st.epochMS {
		epochRates[i] = float64(f.Devices) / (e / 1000)
	}
	o.values["latency_p50_ms"] = quantile(windowMedians(st.pointMS, 50), 0.1)
	o.values["throughput_per_s"] = quantile(epochRates, 0.9)
	serialFleetRate := float64(st.deviceEpochs) / st.fleetTime.Seconds()
	fmt.Fprintf(rc.log, "one-worker point p50 %.4f ms at the fast decile of 50-point windows, %.4f ms pooled; one-worker fleet rate %.0f/s at the fast decile of epochs, %.0f/s pooled\n",
		o.values["latency_p50_ms"], quantile(st.pointMS, 0.5), o.values["throughput_per_s"], serialFleetRate)
	if !rc.layers {
		return o, nil
	}
	o.values["exper.point_ms"] = mean(st.pointMS)
	o.values["exper.points_per_s"] = float64(st.gridPoints) / st.gridTime.Seconds()
	o.values["exper.utilization"] = st.serialTime.Seconds() / (float64(workers) * st.gridTime.Seconds())
	o.values["fleet.epoch_ms"] = mean(st.epochMS)
	o.values["fleet.devices_per_s_1w"] = o.values["throughput_per_s"]
	// Whole runs on both sides: the parallel rate is a whole fleet run's.
	o.values["fleet.parallel_eff"] = parFleetRate / (float64(workers) * serialFleetRate)
	o.values["runtime.alloc_kb_per_op"] = st.allocKB / float64(len(st.pointMS)+st.gridPoints)
	o.values["runtime.gc_cpu_share"] = gcShare(gc0, gc1)
	return o, nil
}

// simulateSetup is one set-up as a user meets it: resolve the fleet
// spec, then start the first sub-grid on a fresh session, which builds
// the deployment, and wait for its first completed point.
func simulateSetup(ctx context.Context, tr *tracer, in simInputs, workers int) (time.Duration, time.Duration, *ehinfer.Fleet, error) {
	start := time.Now()
	f, err := in.spec.Fleet()
	if err != nil {
		return 0, 0, nil, err
	}
	resolve := time.Since(start)
	tr.add("fleet.resolve", 0, 0, start, start.Add(resolve))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := ehinfer.NewSession(ehinfer.WithWorkers(workers)).StartGrid(ctx, in.grids[0])
	var first time.Duration
	for res := range run.Results() {
		if res.Err != "" {
			return 0, 0, nil, fmt.Errorf("first point: %s", res.Err)
		}
		first = time.Since(start)
		break
	}
	cancel()
	_, _ = run.Wait() // canceled on purpose: only the first point counts
	if first == 0 {
		return 0, 0, nil, fmt.Errorf("grid produced no point")
	}
	return first, resolve, f, nil
}

type pointTime struct {
	ms     float64
	failed bool
}

// serialGrid runs the grid on a one-worker session, timing each point,
// and returns the digest of its result JSON.
func serialGrid(ctx context.Context, s *ehinfer.Session, g *ehinfer.ExperimentGrid, tr *tracer, group int64) ([]pointTime, string, error) {
	run := s.StartGrid(ctx, g)
	var pts []pointTime
	prev := time.Now()
	root := tr.begin("exper.serial", group, 0, prev)
	for res := range run.Results() {
		now := time.Now()
		pts = append(pts, pointTime{ms: ms(now.Sub(prev)), failed: res.Err != ""})
		tr.add("exper.point", group, root, prev, now)
		prev = now
	}
	gr, err := run.Wait()
	if err != nil {
		return nil, "", err
	}
	tr.finish(root, time.Now())
	b, err := gr.JSON()
	if err != nil {
		return nil, "", err
	}
	return pts, digest(b), nil
}

func fleetJSONDigest(r *ehinfer.FleetResult) (string, error) {
	b, err := r.JSON()
	if err != nil {
		return "", err
	}
	return digest(b), nil
}
