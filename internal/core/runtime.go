// Package core assembles the paper's complete system: the offline phase
// (train → nonuniform compression → deploy-check against the MCU) and the
// online phase (event-driven intermittent inference with Q-learned exit
// selection and incremental refinement). It also hosts the experiment
// drivers that regenerate every figure of §V.
//
// Two accuracy backends are supported:
//
//   - Surrogate mode: per-event correctness is drawn from the calibrated
//     per-exit accuracies via a per-event difficulty variable u ∈ [0,1);
//     the event is correct at exit i iff u < Acc_i. Because exit
//     accuracies increase with depth, incremental inference monotonically
//     repairs borderline events, matching the paper's mechanism. This
//     backend powers the paper-figure benches (fast, deterministic).
//
//   - Empirical mode: events carry real SynthCIFAR samples and the actual
//     compressed network runs (and resumes) on them; confidence is the
//     true normalized-entropy confidence. This backend powers the
//     examples and integration tests.
package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/intermittent"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/multiexit"
	"repro/internal/plan"
	"repro/internal/qlearn"
	"repro/internal/tensor"
)

// PolicyMode selects the runtime exit-selection strategy.
type PolicyMode int

const (
	// PolicyQLearning is the paper's adaptive runtime (§IV).
	PolicyQLearning PolicyMode = iota
	// PolicyStaticLUT is the static greedy baseline: deepest affordable
	// exit, fixed confidence threshold for incremental inference.
	PolicyStaticLUT
)

func (m PolicyMode) String() string {
	switch m {
	case PolicyQLearning:
		return "q-learning"
	case PolicyStaticLUT:
		return "static-lut"
	default:
		return fmt.Sprintf("PolicyMode(%d)", int(m))
	}
}

// Deployed is a compressed multi-exit network plus everything the runtime
// needs to schedule it on the device.
type Deployed struct {
	Net *multiexit.Network
	// ExitAccs is the per-exit accuracy after compression (surrogate
	// prediction or empirically measured).
	ExitAccs []float64
	// ExitFLOPs is the per-exit MAC cost after compression.
	ExitFLOPs []int64
	// Marginal[i][j] is the cost of resuming from exit i to exit j.
	Marginal [][]int64
	// WeightBytes is the deployed model size.
	WeightBytes int64
	// DefaultBackend is the deployment's own preferred empirical-mode
	// inference backend. It applies only when neither the runtime config
	// nor an outer default (session, engine, grid) names a backend — a
	// loaded artifact runs the way it was packaged unless the caller
	// explicitly overrides.
	DefaultBackend InferBackend
	// Int8Calibration, when non-nil, pins the int8 backend's
	// requantization scales (see BindInt8Calibration). Pinned scales let
	// a deployment run int8 without calibration images — the
	// "compress once, flash once" contract a serialized artifact keeps.
	Int8Calibration *plan.Calibration

	// planc caches the compiled float32 inference plan (see FloatPlan);
	// planc8 caches the pinned-scale int8 plan (see Int8PlanPinned);
	// planc8f the pinned-scale packed-weight fast plan
	// (see Int8FastPlanPinned).
	planc   planCache
	planc8  planCache
	planc8f planCache
}

// NewDeployed captures the deployment view of a (compressed) network.
func NewDeployed(net *multiexit.Network, exitAccs []float64) (*Deployed, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	m := net.NumExits()
	if len(exitAccs) != m {
		return nil, fmt.Errorf("core: %d exit accuracies for %d exits", len(exitAccs), m)
	}
	d := &Deployed{
		Net:         net,
		ExitAccs:    append([]float64(nil), exitAccs...),
		WeightBytes: net.WeightBytes(),
	}
	for i := 0; i < m; i++ {
		d.ExitFLOPs = append(d.ExitFLOPs, net.ExitFLOPs(i))
	}
	d.Marginal = make([][]int64, m)
	for i := 0; i < m; i++ {
		d.Marginal[i] = make([]int64, m)
		for j := i + 1; j < m; j++ {
			d.Marginal[i][j] = net.MarginalFLOPs(i, j)
		}
	}
	return d, nil
}

// CheckFits verifies the deployment against the device storage budget.
func (d *Deployed) CheckFits(dev *mcu.Device) error {
	if !dev.FitsStorage(d.WeightBytes) {
		return fmt.Errorf("core: model is %d bytes but %s has only %d bytes of weight storage",
			d.WeightBytes, dev.Name, dev.WeightStorageBytes)
	}
	return nil
}

// RuntimeConfig parameterizes a simulation run.
type RuntimeConfig struct {
	Mode PolicyMode
	// Device defaults to mcu.MSP432().
	Device *mcu.Device
	// Storage defaults to energy.DefaultStorage().
	Storage *energy.Storage
	// ConfidenceThreshold is the static incremental-inference threshold
	// (default 0.65).
	ConfidenceThreshold float64
	// DisableIncremental turns off incremental inference (ablation).
	DisableIncremental bool
	// EnergyBins/PowerBins/ConfBins discretize the Q-state (defaults
	// 10/6/8).
	EnergyBins int
	PowerBins  int
	ConfBins   int
	// Seed drives exploration and surrogate correctness draws.
	Seed uint64
	// TestSet, when non-nil, switches to empirical mode: events must
	// carry SampleIndex into this set.
	TestSet *dataset.Set
	// Backend selects how empirical-mode inference executes (default
	// BackendPlan: the compiled zero-allocation plan, bit-identical to
	// the layer walk). Surrogate runs ignore it.
	Backend InferBackend
	// Calibration supplies held-out images (CHW, [0,1] pixels) for the
	// int8 backend's activation-scale calibration. When empty, the
	// first samples of TestSet are used — convenient, but that leaks
	// evaluation data into the quantization scales, so pass training or
	// held-out samples when reporting int8 accuracy.
	Calibration []*tensor.Tensor
	// PowerWindow is the trailing window (s) for the charging-efficiency
	// observation (default 60).
	PowerWindow int
	// IncrementalEnergyPenalty shapes the continue-action reward:
	// r(continue) = correctness − penalty·(marginalCost/capacity). The
	// paper specifies the incremental decision's state (confidence,
	// energy) but not its reward; without an energy term the learner
	// degenerates to "always continue" since deeper exits are never
	// less accurate. Default 0.6.
	IncrementalEnergyPenalty float64
	// SkipFitCheck bypasses the storage-fit check (for deliberately
	// oversized ablations).
	SkipFitCheck bool
}

func (c *RuntimeConfig) fillDefaults() {
	if c.Device == nil {
		c.Device = mcu.MSP432()
	}
	if c.Storage == nil {
		c.Storage = energy.DefaultStorage()
	}
	if c.ConfidenceThreshold == 0 {
		c.ConfidenceThreshold = 0.65
	}
	if c.EnergyBins == 0 {
		c.EnergyBins = 10
	}
	if c.PowerBins == 0 {
		c.PowerBins = 6
	}
	if c.ConfBins == 0 {
		c.ConfBins = 8
	}
	if c.PowerWindow == 0 {
		c.PowerWindow = 60
	}
	if c.IncrementalEnergyPenalty == 0 {
		c.IncrementalEnergyPenalty = 0.6
	}
}

// Runtime executes event schedules against a deployed network. Its
// Q-tables persist across Run calls, so successive runs implement the
// learning episodes of Fig. 7a.
type Runtime struct {
	cfg      RuntimeConfig
	deployed *Deployed

	exitAgent *qlearn.ExitAgent
	incrAgent *qlearn.IncrementalAgent
	static    *qlearn.StaticLUT
	rng       *tensor.RNG

	// costs[i] is the energy cost of exit i on the configured device —
	// computed once here, reused by every Run.
	costs []float64

	// exec/planState drive empirical-mode inference on the compiled plan
	// (nil on the legacy backend, or when the deployment cannot be
	// compiled and the runtime fell back to the layer walk). One State is
	// reused across all events; the plan arena makes the inference path
	// allocation-free.
	exec      *plan.Exec
	planState *plan.State

	// lastTrace/lastPeak memoize tracePeak across Runs: learning loops
	// re-run the same trace dozens of times, and the peak is a pure
	// function of the trace.
	lastTrace *energy.Trace
	lastPeak  float64

	// pending is the exit-agent transition awaiting its successor state,
	// which is only observed at the next event (the event-level MDP's
	// true transition). Held by value — re-boxing it per event was the
	// episode loop's dominant allocation.
	pending    pendingUpdate
	hasPending bool
}

type pendingUpdate struct {
	state  int
	action int
	reward float64
}

// queueExitUpdate stages the exit agent's transition until the successor
// state is observed at the next event.
func (r *Runtime) queueExitUpdate(state, action int, reward float64) {
	if r.cfg.Mode != PolicyQLearning {
		return
	}
	r.pending = pendingUpdate{state: state, action: action, reward: reward}
	r.hasPending = true
}

// NewRuntime builds a runtime for the deployment.
func NewRuntime(d *Deployed, cfg RuntimeConfig) (*Runtime, error) {
	cfg.fillDefaults()
	if !cfg.SkipFitCheck {
		if err := d.CheckFits(cfg.Device); err != nil {
			return nil, err
		}
	}
	costs := make([]float64, len(d.ExitFLOPs))
	for i, f := range d.ExitFLOPs {
		costs[i] = cfg.Device.ComputeEnergyMJ(f)
	}
	r := &Runtime{
		cfg:      cfg,
		deployed: d,
		static:   qlearn.NewStaticLUT(costs, cfg.ConfidenceThreshold),
		rng:      tensor.NewRNG(cfg.Seed + 0xc0fe),
		costs:    costs,
	}
	if cfg.Backend == BackendDefault {
		// No explicit choice anywhere up the stack: the deployment's own
		// default (e.g. the backend a loaded artifact was packaged with)
		// applies before the global plan default.
		cfg.Backend = d.DefaultBackend
	}
	cfg.Backend = cfg.Backend.Resolve()
	r.cfg.Backend = cfg.Backend
	if cfg.TestSet != nil && cfg.Backend != BackendLegacy {
		// Empirical mode on a compiled backend: build the executor once.
		if cfg.Backend == BackendInt8 || cfg.Backend == BackendInt8Fast {
			// An integer backend was explicitly requested; a deployment
			// that cannot lower must not silently produce float results.
			calib := cfg.Calibration
			if len(calib) == 0 && d.Int8Calibration == nil {
				calib = calibrationSamples(cfg.TestSet, 8)
			}
			p, perr := d.int8Plan(calib, cfg.Backend == BackendInt8Fast)
			if perr != nil {
				return nil, fmt.Errorf("core: %s backend unavailable for this deployment: %w", cfg.Backend, perr)
			}
			r.exec = p.NewExec()
			r.planState = p.NewState()
		} else if p, perr := d.FloatPlan(); perr == nil {
			// The float plan is bit-identical to the layer walk, so a
			// deployment that cannot compile (exotic architecture)
			// falls back to the walk — same results, just slower.
			r.exec = p.NewExec()
			r.planState = p.NewState()
		}
	}
	const maxPowerInit = 0.05 // mW; rebinned per-run from the trace peak
	r.exitAgent = qlearn.NewExitAgent(len(costs), cfg.EnergyBins, cfg.PowerBins, cfg.Storage.CapacityMJ, maxPowerInit)
	r.incrAgent = qlearn.NewIncrementalAgent(cfg.ConfBins, cfg.EnergyBins, cfg.Storage.CapacityMJ)
	// Start from an uninformed policy: small random Q-values make the
	// initial exit preferences arbitrary (Fig. 7a's learning curve
	// starts well below the converged value), and learning overwrites
	// them within a few episodes.
	for s := 0; s < r.exitAgent.Table.NumStates; s++ {
		for a := 0; a < r.exitAgent.Table.NumActions; a++ {
			r.exitAgent.Table.SetQ(s, a, 0.05*r.rng.Float64())
		}
	}
	return r, nil
}

// calibrationSamples collects up to n deterministic calibration images
// (the set's first samples) for the int8 lowering.
func calibrationSamples(set *dataset.Set, n int) []*tensor.Tensor {
	if set.Len() < n {
		n = set.Len()
	}
	imgs := make([]*tensor.Tensor, 0, n)
	for i := 0; i < n; i++ {
		imgs = append(imgs, set.Samples[i].Image)
	}
	return imgs
}

// Backend reports the effective inference backend: the configured one,
// downgraded to legacy when no plan could be compiled.
func (r *Runtime) Backend() InferBackend {
	if r.cfg.TestSet != nil && r.exec == nil {
		return BackendLegacy
	}
	return r.cfg.Backend
}

// ExitAgent exposes the exit Q-learner (tests and diagnostics).
func (r *Runtime) ExitAgent() *qlearn.ExitAgent { return r.exitAgent }

// IncrementalAgent exposes the incremental Q-learner.
func (r *Runtime) IncrementalAgent() *qlearn.IncrementalAgent { return r.incrAgent }

// SetExploration sets ε on both Q-tables (0 for greedy evaluation).
func (r *Runtime) SetExploration(eps float64) {
	r.exitAgent.Table.Epsilon = eps
	r.incrAgent.Table.Epsilon = eps
}

// eventCtx carries the per-event surrogate or empirical inference state.
// The runtime reuses one value across all events of a Run.
type eventCtx struct {
	// u is the surrogate difficulty draw.
	u float64
	// sample/state for empirical mode.
	sample *dataset.Sample
	state  *multiexit.State
	label  int
	// planStarted marks the runtime's reusable plan state as holding
	// this event's inference.
	planStarted bool
}

// correctAt reports whether the event's result at the given exit is
// correct, and the confidence of that result.
//
//ehlint:hotpath
func (r *Runtime) correctAt(ctx *eventCtx, exit int) (bool, float64) {
	if r.cfg.TestSet != nil && ctx.sample != nil {
		if r.exec != nil {
			// Compiled backend: zero-allocation InferTo/Resume on the
			// runtime's pooled plan state.
			if !ctx.planStarted {
				r.exec.InferTo(r.planState, ctx.sample.Image, exit)
				ctx.planStarted = true
			} else if exit > r.planState.Exit {
				r.exec.Resume(r.planState, exit)
			}
			return r.planState.Predicted() == ctx.label, r.planState.Confidence()
		}
		if ctx.state == nil {
			ctx.state = r.deployed.Net.InferTo(ctx.sample.Image, exit)
		} else if exit > ctx.state.Exit {
			ctx.state = r.deployed.Net.Resume(ctx.state, exit)
		}
		return ctx.state.Predicted() == ctx.label, ctx.state.Confidence()
	}
	acc := r.deployed.ExitAccs[exit]
	correct := ctx.u < acc
	// Confidence correlates with the margin between difficulty and the
	// exit's capability, mirroring entropy at a real classifier head:
	// easy events (u ≪ acc) are confident, borderline ones are not.
	var conf float64
	if correct {
		conf = 0.55 + 0.45*(acc-ctx.u)/math.Max(acc, 1e-9)
	} else {
		conf = 0.55 - 0.35*(ctx.u-acc)/math.Max(1-acc, 1e-9)
	}
	conf += 0.05 * r.rng.NormFloat64()
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	return correct, conf
}

// Run simulates one pass of the schedule over the trace and returns the
// outcome report. Q-tables carry over between calls.
func (r *Runtime) Run(trace *energy.Trace, schedule *energy.Schedule) (*metrics.Report, error) {
	store := *r.cfg.Storage // fresh copy per run
	engine, err := intermittent.New(r.cfg.Device, &store, trace)
	if err != nil {
		return nil, err
	}
	// Rebin the power observation to the trace's scale.
	if trace != r.lastTrace {
		r.lastTrace, r.lastPeak = trace, tracePeak(trace)
	}
	if p := r.lastPeak; p > 0 {
		r.exitAgent.MaxPowerMW = p
	}

	// Exit costs depend only on the configured device, so they were
	// computed once in NewRuntime (engine.EnergyFor would yield the
	// identical values).
	m := r.deployed.Net.NumExits()
	costs := r.costs
	report := &metrics.Report{
		System:   "multi-exit/" + r.cfg.Mode.String(),
		NumExits: m,
	}

	events := schedule.Events
	report.Outcomes = make([]metrics.EventOutcome, 0, len(events))
	// One context serves every event; the per-event reset below replaces
	// the old allocate-per-event pattern (~1 heap alloc per event).
	var ctx eventCtx
	for idx, ev := range events {
		deadline := float64(trace.Duration())
		if idx+1 < len(events) {
			deadline = float64(events[idx+1].T)
		}
		outcome := metrics.EventOutcome{T: ev.T, Exit: -1}

		if engine.Now() > float64(ev.T) {
			// Device still busy with the previous event. The miss is the
			// previous decisions' fault: zero out the pending exit
			// reward and charge the last continue decision.
			report.Outcomes = append(report.Outcomes, outcome)
			continue
		}
		engine.AdvanceTo(float64(ev.T))

		ctx = eventCtx{u: r.rng.Float64(), label: ev.Class}
		if r.cfg.TestSet != nil {
			if ev.SampleIndex < 0 || ev.SampleIndex >= r.cfg.TestSet.Len() {
				return nil, fmt.Errorf("core: event %d has no sample attached for empirical mode", idx)
			}
			ctx.sample = &r.cfg.TestSet.Samples[ev.SampleIndex]
			ctx.label = ctx.sample.Label
		}

		r.handleEvent(engine, &ctx, costs, deadline, &outcome)
		report.Outcomes = append(report.Outcomes, outcome)
	}
	// Flush the final event's pending Q-update (episode boundary).
	if r.hasPending {
		r.exitAgent.Table.UpdateTerminal(r.pending.state, r.pending.action, r.pending.reward)
		r.hasPending = false
	}
	// Drain the rest of the trace so harvested-energy accounting covers
	// the full duration (IEpmJ divides by total trace energy).
	engine.AdvanceTo(float64(trace.Duration()))
	report.HarvestedMJ = engine.Stats().HarvestedMJ
	return report, nil
}

// boolReward maps a correctness bit to the paper's 0/1 reward signal.
func boolReward(c bool) float64 {
	if c {
		return 1
	}
	return 0
}

// handleEvent implements the two sequential decisions of §IV.
//
//ehlint:hotpath
func (r *Runtime) handleEvent(engine *intermittent.Engine, ctx *eventCtx, costs []float64, deadline float64, outcome *metrics.EventOutcome) {
	store := engine.Store
	m := len(costs)

	obsEnergy := store.Available()
	obsPower := engine.RecentPower(r.cfg.PowerWindow)
	state := r.exitAgent.State(obsEnergy, obsPower)

	// Complete the previous event's Q-update now that its successor
	// state (this event's state) is known.
	if r.hasPending {
		r.exitAgent.Table.Update(r.pending.state, r.pending.action, r.pending.reward, state)
		r.hasPending = false
	}

	// Decision 1: select the exit. The action is capped at the deepest
	// exit the current buffer supports (§IV: exits are selected from
	// what "current energy can support"); the Q-agent's leverage is
	// choosing a *cheaper* exit than affordable to reserve energy for
	// future events. If nothing is affordable, the device waits for the
	// cheapest exit, preempted by the next event.
	var chosen int
	if r.cfg.Mode == PolicyQLearning {
		chosen = r.exitAgent.Table.Select(state, r.rng)
	} else {
		chosen = r.static.SelectExit(obsEnergy)
		if chosen < 0 {
			// A fixed LUT has no wait action: with no affordable exit
			// the event is missed — exactly the §IV failure mode the
			// adaptive runtime fixes (and why Fig. 7b's static policy
			// processes fewer events than Q-learning).
			return
		}
	}
	exit := chosen
	for exit > 0 && store.Available() < costs[exit] {
		exit--
	}

	// Wait for the cheapest exit if even that is unaffordable.
	if store.Available() < costs[exit] {
		if !engine.WaitForEnergy(costs[exit], deadline) {
			r.queueExitUpdate(state, chosen, 0) // missed: no energy arrived in time
			return
		}
	}
	res, ok := engine.RunAtomic(r.deployed.ExitFLOPs[exit])
	if !ok {
		r.queueExitUpdate(state, chosen, 0)
		return
	}
	correct, conf := r.correctAt(ctx, exit)
	outcome.Processed = true
	outcome.Exit = exit
	outcome.EnergyMJ = res.EnergyMJ
	outcome.InferenceFLOPs = r.deployed.ExitFLOPs[exit]
	outcome.FinishSec = res.FinishedAt

	// Exit-agent update: reward is the selected exit's accuracy (§IV).
	r.queueExitUpdate(state, chosen, r.deployed.ExitAccs[exit])

	// Decision 2: incremental inference toward deeper exits.
	for exit < m-1 && !r.cfg.DisableIncremental {
		marginal := r.deployed.Marginal[exit][exit+1]
		margCost := engine.EnergyFor(marginal)
		incrState := r.incrAgent.State(conf, store.Available())
		var goOn bool
		if r.cfg.Mode == PolicyQLearning {
			goOn = r.incrAgent.Table.Select(incrState, r.rng) == qlearn.ActionContinue
		} else {
			goOn = r.static.Continue(conf, margCost, store.Available())
		}
		// Continuing pays an energy opportunity cost (see
		// IncrementalEnergyPenalty): refining this result spends budget
		// future events will need.
		continuePenalty := r.cfg.IncrementalEnergyPenalty * margCost / r.cfg.Storage.CapacityMJ
		if !goOn {
			if r.cfg.Mode == PolicyQLearning {
				r.incrAgent.Table.UpdateTerminal(incrState, qlearn.ActionStop, boolReward(correct))
			}
			break
		}
		if store.Available() < margCost {
			// Suspending across a charging period checkpoints the
			// inference state (the paper's State → FRAM write) and pays
			// a restore before resuming.
			if !engine.WaitForEnergy(margCost, deadline) {
				// Energy never arrived; emit the current result.
				if r.cfg.Mode == PolicyQLearning {
					r.incrAgent.Table.UpdateTerminal(incrState, qlearn.ActionContinue, boolReward(correct)-continuePenalty)
				}
				break
			}
		}
		res, ok := engine.RunAtomic(marginal)
		if !ok {
			break
		}
		exit++
		correct, conf = r.correctAt(ctx, exit)
		outcome.Exit = exit
		outcome.Incremental = true
		outcome.EnergyMJ += res.EnergyMJ
		outcome.InferenceFLOPs += marginal
		outcome.FinishSec = res.FinishedAt
		if r.cfg.Mode == PolicyQLearning {
			nextState := r.incrAgent.State(conf, store.Available())
			r.incrAgent.Table.Update(incrState, qlearn.ActionContinue, boolReward(correct)-continuePenalty, nextState)
		}
	}
	outcome.Correct = correct
}

// tracePeak returns the maximum power of the trace for state binning.
func tracePeak(t *energy.Trace) float64 {
	var max float64
	for _, p := range t.Power {
		if p > max {
			max = p
		}
	}
	return max
}
