// Package ehinfer is a Go reproduction of "Intermittent Inference with
// Nonuniformly Compressed Multi-Exit Neural Network for Energy Harvesting
// Powered Devices" (Wu et al., DAC 2020).
//
// The library provides, end to end:
//
//   - a multi-exit CNN (LeNet-EE: 4 conv layers, 2 early exits) with
//     training, per-exit inference, and suspend/resume incremental
//     inference (internal/multiexit, internal/nn, internal/tensor);
//
//   - power-trace-aware, exit-guided nonuniform compression — channel
//     pruning + mixed-precision linear quantization searched by dual
//     DDPG agents under FLOPs/size constraints (internal/compress,
//     internal/search, internal/ddpg, internal/accmodel);
//
//   - an energy-harvesting intermittent-execution simulator — solar and
//     kinetic traces, capacitor storage with turn-on/brown-out
//     hysteresis, an MSP432 cost model, checkpointed run-to-completion
//     execution for baselines (internal/energy, internal/mcu,
//     internal/intermittent);
//
//   - the runtime layer — tabular Q-learning exit selection plus the
//     incremental-inference decision (internal/qlearn, internal/core);
//
//   - the paper's baselines (SonicNet, SpArSeNet, LeNet-Cifar) and the
//     IEpmJ/accuracy/latency metrics (internal/baselines,
//     internal/metrics);
//
//   - the parallel experiment engine (internal/exper): declarative
//     scenario grids — energy trace × MCU device × compression policy ×
//     exit policy × seed — sharded across a goroutine worker pool with
//     per-point seed derivation, so grid results are bit-identical at
//     any worker count; the tensor kernels underneath (row-band parallel
//     MatMul, pooled im2col-GEMM conv) spread single inferences across
//     cores as well;
//
//   - compiled inference plans (internal/plan): a deployment-time
//     compiler that turns the multi-exit network into a zero-allocation
//     program — precomputed shapes and conv geometry, a reusable
//     double-buffered activation arena, fused conv+bias+ReLU steps over
//     register-blocked kernels — with float32 output bit-identical to
//     the layer walk, plus two integer backends selectable via
//     Session.WithBackend, RuntimeConfig.Backend, a GridSpec's
//     "backend" field, or a /v1/infer request's "backend" field: the
//     bit-exact int8 reference (int8 weights, uint8 activations, int32
//     accumulators, frozen requantization) and the packed-weight
//     int8-fast pipeline (dual-lane uint64 weight panels packed at
//     compile time, fused fixed-point requantization, batched serving
//     lanes) that outruns the float32 plan under a statistical
//     per-exit-accuracy parity gate; plans are cached per deployment
//     alongside the experiment engine's deployment cache;
//
//   - the HTTP serving layer (internal/serve, cmd/ehserved): submit
//     declarative GridSpecs and FleetSpecs as jobs on one job model
//     (per-kind ids and retention, one journal/resume protocol), poll
//     progress, stream per-item results as NDJSON, fetch deterministic
//     final reports, upload/download
//     deployment artifacts, with graceful shutdown; every request runs
//     through one middleware chain — panic recovery, request-ID
//     injection, structured slog request logging, metrics, per-client
//     token-bucket rate limiting (X-Client-ID keyed, 429 + Retry-After
//     above the queue-cap backpressure) — built with functional options
//     (serve.New + WithSession/WithBatchConfig/WithRateLimit/
//     WithLogger/WithClock/WithPprof);
//
//   - operational observability (internal/obs): a zero-dependency
//     metrics registry (counters, gauges, histograms) served as
//     Prometheus text exposition on GET /metrics — per-route request
//     counts and latencies, per-model queue depth, batch-size and
//     latency histograms, exit-taken counters — with GET /v1/stats kept
//     as a deprecated JSON view over the same registry (monotonic
//     across artifact deletes), /healthz and /readyz health probes
//     (readiness flips during graceful drain), and net/http/pprof
//     behind the -pprof flag;
//
//   - an exported error taxonomy (ErrBadInput, ErrModelNotFound,
//     ErrQueueFull, ErrInferenceFailed): Session.Infer/InferBatch and
//     the HTTP layer wrap these sentinels so errors.Is works end to
//     end, and internal/serve maps them to HTTP status codes in one
//     table;
//
//   - online inference serving (internal/batch, POST /v1/infer):
//     requests against an uploaded artifact or registered deployment
//     are micro-batched per model — a bounded, work-conserving queue
//     dispatches whatever is waiting as soon as its worker is idle (up
//     to a batch-size bound), sheds overload as 429, and drains
//     cleanly on shutdown — and execute on a batched plan
//     executor (plan.BatchExec) whose per-image float32 output is
//     bit-identical to the single-image plan; Session.Infer and
//     Session.InferBatch expose the same path in-process, returning the
//     predicted class, exit taken, and per-exit confidence profile, and
//     GET /v1/stats reports queue depth, the batch-size histogram,
//     latency percentiles, and throughput;
//
//   - versioned deployment artifacts (internal/artifact): a
//     self-describing bundle — magic, format version, JSON manifest,
//     binary tensor sections — that round-trips a Deployed end to end
//     (architecture spec, compressed weights, per-exit accuracies,
//     compression policy, pinned int8 calibration scales, default
//     backend) with SaveDeployed/LoadDeployed and Session.Deploy; a
//     loaded artifact produces byte-identical episode reports to the
//     in-process deployment it was saved from, on every backend, and
//     decoding is strict (unknown versions, truncated sections, shape
//     mismatches, and trailing bytes are errors);
//
//   - open axis registries: RegisterDevice / RegisterPolicy /
//     RegisterTrace / RegisterSchedule / RegisterDeployment publish
//     user components under names any GridSpec — including one POSTed
//     to ehserved — can reference; registries are RWMutex-guarded and
//     duplicate-rejecting, and /v1/registry reflects them live. The
//     fluent ScenarioBuilder (NewScenario) assembles custom scenarios
//     over the same named components.
//
//   - fleet simulation (internal/fleet): a declarative FleetSpec
//     describes populations of simulated intermittent devices (device
//     model, capacitor, trace family, exit policy, RL hyperparameters,
//     deterministic join/leave/degrade churn), and a sharded engine
//     runs 10⁴–10⁶ of them through the fused episode loop with packed
//     per-population state arenas — bit-identical at any worker count,
//     resumable from journaled epoch snapshots (a SIGKILLed daemon
//     reproduces an uninterrupted run's final document byte for byte),
//     exposed as Session.RunFleet/StartFleet and served by ehserved
//     under POST /v1/fleets with NDJSON snapshot streaming, a unified
//     GET /v1/jobs listing, and per-fleet metric families;
//
//   - mechanical invariant enforcement (internal/lint, cmd/ehlint):
//     five go/analysis-style analyzers — bitident (deterministic float
//     accumulation in the kernels), hotpathalloc (allocation-free
//     //ehlint:hotpath functions), ctxthread (context threading in the
//     blocking engines), errtaxonomy (serve's error-code table and %w
//     wrapping), obsmetric (Prometheus naming and label arity) — run by
//     make lint and CI through go vet -vettool; see README "Static
//     analysis".
//
// This package is the public façade, organized around the Session type:
// a Session owns the worker pool cap, the base seed RNG streams derive
// from, a keyed deployment cache (repeated grids reuse identical
// Deployed models), and the progress callback. Every long-running method
// takes a context.Context; cancellation is cooperative — checked between
// grid points and training episodes — returns ctx.Err(), and preserves
// completed work bit-for-bit. cmd/sweep, cmd/paperbench, cmd/ehsim, and
// cmd/ehserved all run on Sessions; the pre-Session free functions
// remain as thin deprecated wrappers so old callers migrate
// incrementally (see README for the migration table).
//
// The bench suite in bench_test.go regenerates every figure of the
// paper's evaluation. The reproduction substitutes a synthetic dataset,
// a synthetic solar trace, and a calibrated accuracy surrogate for the
// paper's CIFAR-10 data, measured traces, and trained networks.
//
// # Quickstart
//
//	session := ehinfer.NewSession(ehinfer.WithSeed(1))
//	deployed, _ := session.BuildDeployed(ehinfer.Fig1bNonuniform())
//	rows, _ := session.CompareSystems(ctx, session.Scenario(), deployed,
//		ehinfer.CompareConfig{})
//	for _, r := range rows {
//		fmt.Printf("%s IEpmJ=%.2f\n", r.System, r.IEpmJ)
//	}
//
// # Grids, streaming, serving
//
//	grid := ehinfer.PaperSweepGrid([]float64{0.02, 0.032}, []float64{3, 6}, 3, 500)
//	run := session.StartGrid(ctx, grid)
//	for r := range run.Results() { // per-point results as workers finish
//		fmt.Printf("point %d done\n", r.Point.Index)
//	}
//	res, _ := run.Wait() // deterministic final GridResult
//
// The same grids travel over HTTP as declarative GridSpecs:
//
//	ehserved &
//	curl -s localhost:8080/v1/grids -d '{"seeds":[1,2,3]}'
//	curl -sN 'localhost:8080/v1/grids/g1/results?format=ndjson'
//
// # Artifacts: compress once, flash once
//
//	deployed, _ := session.BuildDeployed(ehinfer.Fig1bNonuniform())
//	_ = ehinfer.SaveDeployed("model.ehar", deployed,
//		ehinfer.WithArtifactName("flagship"))
//	restored, _ := session.Deploy("model.ehar") // bit-identical runs
//	_ = ehinfer.RegisterDeployment("flagship", restored)
//	// …and any grid spec may now name "flagship" as a policy axis value.
//
// # Online inference
//
//	pred, _ := session.Infer(ctx, restored, pixels) // deepest exit
//	fmt.Println(pred.Class, pred.Exit, pred.ExitConfidences)
//	preds, _ := session.InferBatch(ctx, restored, batch,
//		ehinfer.InferWithThreshold(0.8)) // anytime early exit
//
// Over HTTP the same path is POST /v1/infer on ehserved (micro-batched
// per model, 429 backpressure at the queue bound; see README "Online
// inference" for the batching knobs and curl quickstart).
package ehinfer
