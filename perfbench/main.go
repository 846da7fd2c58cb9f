// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints every metric by name with its
// unit; its last line is a JSON object with the keys correct, attempted,
// failed and metrics. With --trace 1 it prints the per-layer metrics
// instead, from a run that records spans around every call into a
// layer. "perfbench compare" compares two sets of recorded runs.
//
// Run it through perfbench/run.sh from the repository root; README.md
// in this directory describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
)

// metricDef is one named metric and its unit. The names are the
// contract later changes are measured against.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, grouped by the layer they
// measure.
var perLayer = []metricDef{
	{"serve.handler_ms", "ms"},
	{"serve.codec_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.req_kb", "kB"},
	{"serve.resp_kb", "kB"},
	{"batch.queue_ms", "ms"},
	{"batch.compute_ms", "ms"},
	{"batch.wait_ms", "ms"},
	{"batch.mean_size", "count"},
	{"batch.full_share", "ratio"},
	{"batch.rejected", "count"},
	{"batch.canceled", "count"},
	{"batch.errored", "count"},
	{"plan.segment_us.float.0", "us"},
	{"plan.segment_us.float.1", "us"},
	{"plan.segment_us.float.2", "us"},
	{"plan.segment_us.int8fast.0", "us"},
	{"plan.segment_us.int8fast.1", "us"},
	{"plan.segment_us.int8fast.2", "us"},
	{"plan.scan8_ms.float", "ms"},
	{"plan.scan8_ms.int8fast", "ms"},
	{"plan.compile_ms.float", "ms"},
	{"plan.compile_ms.int8fast", "ms"},
	{"plan.mflop.0", "MFLOP"},
	{"plan.mflop.1", "MFLOP"},
	{"plan.mflop.2", "MFLOP"},
	{"artifact.encode_ms", "ms"},
	{"artifact.decode_ms", "ms"},
	{"core.build_deployed_ms", "ms"},
	{"core.new_runtime_us", "us"},
	{"core.episode_us", "us"},
	{"exper.point_ms", "ms"},
	{"exper.points_per_s", "1/s"},
	{"exper.utilization", "ratio"},
	{"energy.trace_build_ms", "ms"},
	{"fleet.resolve_ms", "ms"},
	{"fleet.epoch_ms", "ms"},
	{"fleet.devices_per_s_1w", "1/s"},
	{"fleet.parallel_eff", "ratio"},
	{"runtime.alloc_kb_per_op", "kB/op"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"tracing.overhead_pct", "%"},
}

// runConfig is one workload run's parameters.
type runConfig struct {
	seed    uint64
	seconds float64
	// tiny shrinks every input to a size that finishes in about a
	// second, for the self-test and for the traced run's side probes.
	tiny bool
	// layers asks the workload for its per-layer metrics as well.
	layers bool
	// tr records spans; nil in untraced runs.
	tr    *tracer
	hooks hooks
	// log takes the human-readable lines printed before the result.
	log io.Writer
}

// hooks let the self-test inject faults the oracles must catch.
type hooks struct {
	// corrupt, when set, rewrites the first measured response body
	// before the prediction oracle sees it.
	corrupt func([]byte) []byte
	// digests, when set, replaces the recorded simulation digests.
	digests map[uint64]digestSet
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
}

func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, rc *runConfig) (*outcome, error)
	// side is the workload whose tiny run gives a traced run the
	// per-layer metrics of the layers this workload does not drive.
	side string
}

var workloads = []workload{
	{"infer-single", func(ctx context.Context, rc *runConfig) (*outcome, error) {
		return runInfer(ctx, rc, inferSingle)
	}, "simulate"},
	{"infer-burst", func(ctx context.Context, rc *runConfig) (*outcome, error) {
		return runInfer(ctx, rc, inferBurst)
	}, "simulate"},
	{"simulate", runSimulate, "infer-single"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: infer-single, infer-burst or simulate")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
		out     = flag.String("out", "", "also append the result, tagged with workload and seed, to this JSONL file for compare")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload infer-single|infer-burst|simulate, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds}
	res, err := run(context.Background(), w, rc, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// run executes one workload run and assembles its result. An untraced
// run reports the end-to-end metrics. A traced run measures the workload
// twice, untraced then traced, for half the time each, so the difference
// gives the tracing overhead; then it replays single layers and, for the
// layers its workload does not drive, runs the other kind of workload
// tiny.
func run(ctx context.Context, w workload, rc runConfig, traced bool, log io.Writer) (*result, error) {
	rc.log = log
	if steal0, total0, ok := hostCPU(); ok {
		// Runs share their host with other machines; a run that lost
		// CPU to them reads slower for reasons outside the program.
		defer func() {
			steal1, total1, _ := hostCPU()
			fmt.Fprintf(log, "host CPU steal during the run: %.1f%%\n", 100*(steal1-steal0)/max(total1-total0, 1))
		}()
	}
	defs := endToEnd
	total := &outcome{}
	values := map[string]float64{}
	if !traced {
		o, err := w.run(ctx, &rc)
		if err != nil {
			return nil, err
		}
		total.merge(o)
		values = o.values
	} else {
		defs = perLayer
		half := rc
		half.seconds = rc.seconds / 2
		base, err := w.run(ctx, &half)
		if err != nil {
			return nil, err
		}
		total.merge(base)
		half.tr, half.layers = newTracer(), true
		o, err := w.run(ctx, &half)
		if err != nil {
			return nil, err
		}
		total.merge(o)
		maps.Copy(values, o.values)
		values["tracing.overhead_pct"] = 100 * (o.values["latency_p50_ms"]/base.values["latency_p50_ms"] - 1)

		side, _ := lookupWorkload(w.side)
		p, err := side.run(ctx, &runConfig{seed: rc.seed, seconds: 1, tiny: true, layers: true, log: log})
		if err != nil {
			return nil, err
		}
		total.merge(p)
		for k, v := range p.values {
			if _, ok := values[k]; !ok {
				values[k] = v
			}
		}
		if err := replayLayers(values, half.tr, rc.tiny); err != nil {
			return nil, err
		}
		half.tr.report(log)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, rc.seed))
		if err := half.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}

	res := &result{
		Correct:   total.failed == 0 && total.attempted > 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s produced no value for metric %s", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
		fmt.Fprintf(log, "%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(log, "%-28s %14.4f (%d of %d failed)\n", "error_rate",
		float64(total.failed)/float64(max(total.attempted, 1)), total.failed, total.attempted)
	return res, nil
}

// record is one run in a JSONL result set read by compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
