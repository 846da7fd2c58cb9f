package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	ehinfer "repro"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// timeReps calls f reps times, records a span per call and returns the
// median duration in milliseconds.
func timeReps(tr *tracer, name string, reps int, f func(i int) error) (float64, error) {
	times := make([]float64, reps)
	for i := range times {
		t := time.Now()
		if err := f(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		done := time.Now()
		tr.add(name, int64(i), 0, t, done)
		times[i] = ms(done.Sub(t))
	}
	return median(times), nil
}

// replayLayers measures single layers by calling their public functions
// directly on the paper's deployment: plan compile and execution per
// backend, the artifact codec, the deployment build, one runtime episode
// and one solar trace. Each value is a median over repeated calls.
func replayLayers(v map[string]float64, tr *tracer, tiny bool) error {
	reps := 15
	if tiny {
		reps = 3
	}
	var d *core.Deployed
	var err error
	if v["core.build_deployed_ms"], err = timeReps(tr, "core.build_deployed", 3, func(int) error {
		d, err = core.BuildDeployed(ehinfer.Fig1bNonuniform(), 42)
		return err
	}); err != nil {
		return err
	}
	for i, f := range d.ExitFLOPs {
		v[fmt.Sprintf("plan.mflop.%d", i)] = float64(f) / 1e6
	}

	var art bytes.Buffer
	if v["artifact.encode_ms"], err = timeReps(tr, "artifact.encode", reps, func(int) error {
		art.Reset()
		return ehinfer.EncodeDeployed(&art, &ehinfer.DeploymentBundle{Name: "perfbench", Deployed: d})
	}); err != nil {
		return err
	}
	if v["artifact.decode_ms"], err = timeReps(tr, "artifact.decode", reps, func(int) error {
		_, err := ehinfer.DecodeDeployed(bytes.NewReader(art.Bytes()))
		return err
	}); err != nil {
		return err
	}

	geom, err := plan.InferGeometry(d.Net)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(7, 7))
	imgs := make([][]float32, 8)
	for i := range imgs {
		imgs[i] = make([]float32, geom.Vol())
		for j := range imgs[i] {
			imgs[i][j] = float32(rng.IntN(256)) / 255
		}
	}
	backends := []struct {
		name    string
		compile func() (*plan.Plan, error)
	}{
		{"float", func() (*plan.Plan, error) { return plan.Compile(d.Net, geom) }},
		{"int8fast", func() (*plan.Plan, error) {
			return plan.CompileInt8Fast(d.Net, geom, plan.Int8Config{Scales: d.Int8Calibration})
		}},
	}
	for _, b := range backends {
		var p *plan.Plan
		if v["plan.compile_ms."+b.name], err = timeReps(tr, "plan.compile", reps, func(int) error {
			p, err = b.compile()
			return err
		}); err != nil {
			return err
		}
		replaySegments(v, tr, p, b.name, imgs, reps)
		be, err := p.NewBatchExec(len(imgs))
		if err != nil {
			return err
		}
		last := p.NumExits() - 1
		if v["plan.scan8_ms."+b.name], err = timeReps(tr, "plan.scan8", reps, func(int) error {
			be.ScanExits(imgs, last, func(int, int, []float32) {})
			return nil
		}); err != nil {
			return err
		}
	}

	sc := core.DefaultScenario(42)
	cfg := core.RuntimeConfig{Mode: core.PolicyQLearning, Device: sc.Device, Storage: sc.Storage, Seed: 42}
	var rt *core.Runtime
	newRT, err := timeReps(tr, "core.new_runtime", reps, func(int) error {
		rt, err = core.NewRuntime(d, cfg)
		return err
	})
	if err != nil {
		return err
	}
	v["core.new_runtime_us"] = 1000 * newRT
	episode, err := timeReps(tr, "core.episode", reps, func(int) error {
		_, err := rt.Run(sc.Trace, sc.Schedule)
		return err
	})
	if err != nil {
		return err
	}
	v["core.episode_us"] = 1000 * episode
	v["energy.trace_build_ms"], err = timeReps(tr, "energy.trace_build", reps, func(i int) error {
		energy.SyntheticSolarTrace(energy.SolarConfig{Seconds: 21600, PeakPower: 0.032, Seed: uint64(i)})
		return nil
	})
	return err
}

// replaySegments times each trunk segment of p on its own: InferTo exit
// 0, then Resume to each deeper exit, per image; values are medians in
// microseconds.
func replaySegments(v map[string]float64, tr *tracer, p *plan.Plan, backend string, imgs [][]float32, reps int) {
	ex, st := p.NewExec(), p.NewState()
	seg := make([][]float64, p.NumExits())
	for r := 0; r < reps; r++ {
		img := tensor.FromSlice(imgs[r%len(imgs)], len(imgs[0]))
		for e := range seg {
			t := time.Now()
			if e == 0 {
				ex.InferTo(st, img, 0)
			} else {
				ex.Resume(st, e)
			}
			done := time.Now()
			tr.add(fmt.Sprintf("plan.segment.%s.%d", backend, e), int64(r), 0, t, done)
			seg[e] = append(seg[e], 1000*ms(done.Sub(t)))
		}
	}
	for e, xs := range seg {
		v[fmt.Sprintf("plan.segment_us.%s.%d", backend, e)] = median(xs)
	}
}
