package core

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/intermittent"
	"repro/internal/metrics"
	"repro/internal/multiexit"
	"repro/internal/plan"
	"repro/internal/qlearn"
	"repro/internal/tensor"
)

const (
	// powerWindow is the trailing window (s) over which the exit agent
	// observes charging efficiency.
	powerWindow = 60
	// incrementalEnergyPenalty shapes the continue-action reward:
	// r(continue) = correctness − penalty·(marginalCost/capacity). The
	// paper specifies the incremental decision's state (confidence,
	// energy) but not its reward; without an energy term the learner
	// degenerates to "always continue" since deeper exits are never
	// less accurate.
	incrementalEnergyPenalty = 0.6
)

// Kernel is the §IV online decision step: for one event it selects an
// exit from the energy the device has now, runs it, then decides whether
// to continue incrementally toward deeper exits, updating both Q-tables
// as it goes. A Kernel holds only read-only per-deployment tables, so one
// serves any number of devices; each device's mutable state is an
// Episode. Runtime drives it over a schedule for one device, the fleet
// engine for whole populations.
type Kernel struct {
	d           *Deployed
	mode        PolicyMode
	incremental bool
	// costs[i] is the energy (mJ) of an inference to exit i on the
	// device; margCosts[i] the cost of resuming from exit i to i+1.
	costs     []float64
	margCosts []float64
	static    *qlearn.StaticLUT
	// capacityMJ is the capacitor capacity the continue penalty is
	// scaled by.
	capacityMJ float64
}

// NewKernel builds the decision kernel for a deployment under cfg's
// mode, device, capacitor, confidence threshold, and incremental switch
// (RuntimeConfig defaults apply).
func NewKernel(d *Deployed, cfg RuntimeConfig) *Kernel {
	cfg.fillDefaults()
	m := len(d.ExitFLOPs)
	k := &Kernel{
		d:           d,
		mode:        cfg.Mode,
		incremental: !cfg.DisableIncremental,
		costs:       make([]float64, m),
		margCosts:   make([]float64, m),
		capacityMJ:  cfg.Storage.CapacityMJ,
	}
	for i, f := range d.ExitFLOPs {
		k.costs[i] = cfg.Device.ComputeEnergyMJ(f)
		if i+1 < m {
			k.margCosts[i] = cfg.Device.ComputeEnergyMJ(d.Marginal[i][i+1])
		}
	}
	k.static = qlearn.NewStaticLUT(k.costs, cfg.ConfidenceThreshold)
	return k
}

// NumExits returns the deployment's exit count.
func (k *Kernel) NumExits() int { return len(k.costs) }

// Episode is one device's mutable decision state. The caller supplies
// the engine the device runs on, its two Q-learners, its policy and
// surrogate RNG stream, and, for empirical events, a compiled-plan
// cursor; the kernel keeps the exit agent's pending transition and the
// current event's inference state here between calls.
type Episode struct {
	Engine    *intermittent.Engine
	ExitAgent *qlearn.ExitAgent
	IncrAgent *qlearn.IncrementalAgent
	RNG       *tensor.RNG
	// Exec/State run empirical inference on a compiled plan; with a nil
	// Exec, empirical events fall back to the layer walk.
	Exec  *plan.Exec
	State *plan.State

	// pending is the exit-agent transition awaiting its successor state,
	// which is only observed at the next event (the event-level MDP's
	// true transition). Held by value so the step never allocates.
	pending    pendingUpdate
	hasPending bool

	// The current event: the surrogate difficulty draw u, the empirical
	// sample, whether State holds its inference, and the layer-walk
	// state.
	u       float64
	sample  *dataset.Sample
	started bool
	walk    *multiexit.State
}

type pendingUpdate struct {
	state  int
	action int
	reward float64
}

// Step handles one event at time t, which must be decided by deadline
// (the next event's time). sample is the event's input in empirical
// mode and nil in surrogate mode. A processed event sets out's
// Processed, Correct, Exit, Incremental, InferenceFLOPs and FinishSec; a
// missed one leaves out untouched. The energy of each atomic run is
// added to *energyMJ, so a caller may keep one running sum across
// events or pass &out.EnergyMJ for a per-event total.
//
//ehlint:hotpath
func (k *Kernel) Step(ep *Episode, t, deadline float64, sample *dataset.Sample, out *metrics.EventOutcome, energyMJ *float64) {
	engine := ep.Engine
	if engine.Now() > t {
		// Device still busy with the previous event: missed. The pending
		// exit transition waits for the next observed state.
		return
	}
	engine.AdvanceTo(t)
	ep.u, ep.sample, ep.started, ep.walk = ep.RNG.Float64(), sample, false, nil

	store := engine.Store
	obsEnergy := store.Available()
	state := ep.ExitAgent.State(obsEnergy, engine.RecentPower(powerWindow))
	// Complete the previous event's Q-update now that its successor
	// state (this event's state) is known.
	if ep.hasPending {
		ep.ExitAgent.Table.Update(ep.pending.state, ep.pending.action, ep.pending.reward, state)
		ep.hasPending = false
	}

	// Decision 1: select the exit. The action is capped at the deepest
	// exit the current buffer supports (§IV: exits are selected from
	// what "current energy can support"); the Q-agent's leverage is
	// choosing a *cheaper* exit than affordable to reserve energy for
	// future events. If nothing is affordable, the device waits for the
	// cheapest exit, preempted by the next event.
	qmode := k.mode == PolicyQLearning
	var chosen int
	if qmode {
		chosen = ep.ExitAgent.Table.Select(state, ep.RNG)
	} else if chosen = k.static.SelectExit(obsEnergy); chosen < 0 {
		// A fixed LUT has no wait action: with no affordable exit the
		// event is missed — exactly the §IV failure mode the adaptive
		// runtime fixes (and why Fig. 7b's static policy processes fewer
		// events than Q-learning).
		return
	}
	exit := chosen
	for exit > 0 && store.Available() < k.costs[exit] {
		exit--
	}
	if store.Available() < k.costs[exit] && !engine.WaitForEnergy(k.costs[exit], deadline) {
		k.queueExitUpdate(ep, state, chosen, 0) // missed: no energy arrived in time
		return
	}
	res, ok := engine.RunAtomic(k.d.ExitFLOPs[exit])
	if !ok {
		k.queueExitUpdate(ep, state, chosen, 0)
		return
	}
	correct, conf := k.correctAt(ep, exit)
	*energyMJ += res.EnergyMJ
	out.Processed = true
	out.Exit = exit
	out.InferenceFLOPs = k.d.ExitFLOPs[exit]
	out.FinishSec = res.FinishedAt
	// Exit-agent update: reward is the selected exit's accuracy (§IV).
	k.queueExitUpdate(ep, state, chosen, k.d.ExitAccs[exit])

	// Decision 2: incremental inference toward deeper exits.
	for k.incremental && exit < len(k.costs)-1 {
		margCost := k.margCosts[exit]
		incrState := ep.IncrAgent.State(conf, store.Available())
		var goOn bool
		if qmode {
			goOn = ep.IncrAgent.Table.Select(incrState, ep.RNG) == qlearn.ActionContinue
		} else {
			goOn = k.static.Continue(conf, margCost, store.Available())
		}
		// Continuing pays an energy opportunity cost (see
		// incrementalEnergyPenalty): refining this result spends budget
		// future events will need.
		continuePenalty := incrementalEnergyPenalty * margCost / k.capacityMJ
		if !goOn {
			if qmode {
				ep.IncrAgent.Table.UpdateTerminal(incrState, qlearn.ActionStop, boolReward(correct))
			}
			break
		}
		// Suspending across a charging period checkpoints the inference
		// state (the paper's State → FRAM write) and pays a restore
		// before resuming.
		if store.Available() < margCost && !engine.WaitForEnergy(margCost, deadline) {
			// Energy never arrived; emit the current result.
			if qmode {
				ep.IncrAgent.Table.UpdateTerminal(incrState, qlearn.ActionContinue, boolReward(correct)-continuePenalty)
			}
			break
		}
		marginal := k.d.Marginal[exit][exit+1]
		res, ok := engine.RunAtomic(marginal)
		if !ok {
			break
		}
		exit++
		correct, conf = k.correctAt(ep, exit)
		*energyMJ += res.EnergyMJ
		out.Exit = exit
		out.Incremental = true
		out.InferenceFLOPs += marginal
		out.FinishSec = res.FinishedAt
		if qmode {
			nextState := ep.IncrAgent.State(conf, store.Available())
			ep.IncrAgent.Table.Update(incrState, qlearn.ActionContinue, boolReward(correct)-continuePenalty, nextState)
		}
	}
	out.Correct = correct
}

// Finish closes an episode: the last event's pending exit transition has
// no successor, so it updates as terminal.
func (k *Kernel) Finish(ep *Episode) {
	if ep.hasPending {
		ep.ExitAgent.Table.UpdateTerminal(ep.pending.state, ep.pending.action, ep.pending.reward)
		ep.hasPending = false
	}
}

// queueExitUpdate stages the exit agent's transition until the successor
// state is observed at the next event.
func (k *Kernel) queueExitUpdate(ep *Episode, state, action int, reward float64) {
	if k.mode != PolicyQLearning {
		return
	}
	ep.pending = pendingUpdate{state: state, action: action, reward: reward}
	ep.hasPending = true
}

// correctAt reports whether the event's result at the given exit is
// correct, and the confidence of that result.
//
//ehlint:hotpath
func (k *Kernel) correctAt(ep *Episode, exit int) (bool, float64) {
	if s := ep.sample; s != nil {
		if ep.Exec != nil {
			// Compiled backend: zero-allocation InferTo/Resume on the
			// caller's plan state.
			if !ep.started {
				ep.Exec.InferTo(ep.State, s.Image, exit)
				ep.started = true
			} else if exit > ep.State.Exit {
				ep.Exec.Resume(ep.State, exit)
			}
			return ep.State.Predicted() == s.Label, ep.State.Confidence()
		}
		if ep.walk == nil {
			ep.walk = k.d.Net.InferTo(s.Image, exit)
		} else if exit > ep.walk.Exit {
			ep.walk = k.d.Net.Resume(ep.walk, exit)
		}
		return ep.walk.Predicted() == s.Label, ep.walk.Confidence()
	}
	acc := k.d.ExitAccs[exit]
	correct := ep.u < acc
	// Confidence correlates with the margin between difficulty and the
	// exit's capability, mirroring entropy at a real classifier head:
	// easy events (u ≪ acc) are confident, borderline ones are not.
	var conf float64
	if correct {
		conf = 0.55 + 0.45*(acc-ep.u)/math.Max(acc, 1e-9)
	} else {
		conf = 0.55 - 0.35*(ep.u-acc)/math.Max(1-acc, 1e-9)
	}
	conf += 0.05 * ep.RNG.NormFloat64()
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	return correct, conf
}

// boolReward maps a correctness bit to the paper's 0/1 reward signal.
func boolReward(c bool) float64 {
	if c {
		return 1
	}
	return 0
}
