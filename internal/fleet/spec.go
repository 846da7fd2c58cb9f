// Package fleet simulates large populations of intermittently powered
// devices — 10⁴ to 10⁶ of them — as one first-class workload. Each
// simulated device runs the paper's full online loop (event-driven exit
// selection, incremental refinement, tabular Q-learning) through
// core.Kernel, the same §IV decision step core.Runtime runs for one
// device. What the fleet adds is storage and scheduling: it keeps every
// device's RL policy state, RNG stream, and interval counters in packed
// per-population arenas, binds them into the kernel one device at a
// time, and shards the devices across workers. The episode loop is
// allocation-free in the steady state (`//ehlint:hotpath`),
// populations share one read-only compiled deployment (and, in
// empirical mode, one compiled inference plan), and a population's
// energy traces come from a small pool of seed-jittered variants rather
// than a trace per device.
//
// Determinism contract: every per-device stream (policy RNG, schedule,
// trace variant, churn) derives from (BaseSeed, global device index)
// through exper.DeriveSeed, devices are fully independent within an
// epoch, and snapshot aggregation reduces per-device accumulators in
// device-index order at epoch barriers — so fleet results are
// bit-identical at any worker count, and a run fast-forwarded to a
// later StartEpoch reproduces the uninterrupted run's snapshots and
// final document byte for byte (the property ehserved's crash-resume
// leans on).
package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/exper"
	"repro/internal/mcu"
	"repro/internal/plan"
)

// Fleet-wide defaults; population-level knobs default to the paper's §V
// values exactly as exper.GridSpec's axes do.
const (
	defaultEpochs        = 8
	defaultEvents        = 40
	defaultEventClasses  = 10
	defaultTraceVariants = 16
	defaultTraceSeconds  = 3600
	defaultTracePeakMW   = 0.032
	defaultSamples       = 128
	// maxDevices bounds a submitted fleet: the arena for a million
	// default-binned devices is ~3 GB, and anything past this is a spec
	// error, not a workload.
	maxDevices = 4_000_000
	// maxTraceVariants bounds a population's trace pool: each variant is
	// a materialized trace (about 33 KB and 0.25 ms to build for the
	// default hour-long solar trace), so the pool, unlike the arena,
	// must not scale with the device count.
	maxTraceVariants = 1024
)

// Stream salts separating the fleet's seed-derived stream families from
// each other and from the grid engine's (which uses 0 and deploySalt).
const (
	saltDeploy uint64 = 0xf1ee7_0001
	saltTrace  uint64 = 0xf1ee7_0002
	saltDevice uint64 = 0xf1ee7_0003
	saltSched  uint64 = 0xf1ee7_0004
	saltChurn  uint64 = 0xf1ee7_0005
	saltData   uint64 = 0xf1ee7_0006
)

// ChurnKind selects a deterministic churn/failure-injection rule.
type ChurnKind string

// Supported churn kinds.
const (
	// ChurnLeave takes each device offline for any given epoch with
	// probability Prob (intermittent connectivity / duty-cycled nodes).
	ChurnLeave ChurnKind = "leave"
	// ChurnJoin selects a Prob fraction of devices to join the fleet
	// late, at a seed-derived epoch — before it they are offline.
	ChurnJoin ChurnKind = "join"
	// ChurnDegrade selects a Prob fraction of devices whose capacitor
	// loses Rate of its capacity per epoch, floored at MinFrac (aging
	// cells).
	ChurnDegrade ChurnKind = "degrade"
)

// ChurnSpec is one declarative churn rule. Whether a rule touches a
// given (device, epoch) is a pure function of the fleet seed, the rule's
// index, and the device's global index — the internal/chaos seed-stream
// pattern — so churn replays identically across worker counts and
// checkpoint/resume boundaries.
type ChurnSpec struct {
	Kind ChurnKind `json:"kind"`
	// Prob is the selection probability in [0, 1] (per epoch for leave,
	// per device for join/degrade).
	Prob float64 `json:"prob"`
	// Rate is the per-epoch capacity fraction lost (degrade only).
	Rate float64 `json:"rate,omitempty"`
	// MinFrac floors the degraded capacity fraction (default 0.2).
	MinFrac float64 `json:"minFrac,omitempty"`
}

// PopulationSpec describes one homogeneous device population: how many
// devices, which MCU/capacitor/deployment they run, which trace family
// feeds them (each device gets a seed-jittered variant), their exit
// policy and RL hyperparameters, and any churn rules.
type PopulationSpec struct {
	Name string `json:"name,omitempty"`
	// Count is the number of simulated devices.
	Count int `json:"count"`
	// Device names an MCU axis value (see exper.DeviceNames; default
	// "MSP432").
	Device string `json:"device,omitempty"`
	// Policy names a compression policy, registered deployment, or — via
	// a caller resolver — an uploaded "artifact:<id>" (default
	// "nonuniform"). All devices of the population share the one
	// resulting read-only deployment.
	Policy string `json:"policy,omitempty"`
	// Trace is the population's trace family (zero value: a 3600 s
	// 0.032 mW solar trace). Each device draws one of TraceVariants
	// seed-jittered instances of it.
	Trace exper.TraceSpec `json:"trace,omitempty"`
	// TraceVariants sizes the per-population trace pool (default 16, at
	// most 1024, clamped to Count).
	TraceVariants int `json:"traceVariants,omitempty"`
	// Storage is the capacitor template (zero value: the paper's 6 mJ
	// capacitor).
	Storage exper.StorageSpec `json:"storage,omitempty"`
	// Exit selects the runtime exit policy (zero value: Q-learning).
	Exit exper.ExitSpec `json:"exit,omitempty"`
	// Alpha/Gamma override the Q-learning rates (defaults 0.2 / 0.9).
	Alpha float64 `json:"alpha,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	// Epsilon fixes the exploration rate; 0 selects the annealed
	// schedule (exploration decaying over the fleet's epochs).
	Epsilon float64 `json:"epsilon,omitempty"`
	// EnergyBins/PowerBins/ConfBins discretize the Q-state (defaults
	// 10/6/8). Fewer bins shrink the per-device arena — the knob that
	// makes 10⁶-device fleets fit in memory.
	EnergyBins int `json:"energyBins,omitempty"`
	PowerBins  int `json:"powerBins,omitempty"`
	ConfBins   int `json:"confBins,omitempty"`
	// Empirical switches the population from the surrogate accuracy
	// model to real inference on the population's shared compiled plan
	// (one plan.Plan, read-only across all shards; each worker keeps its
	// own execution state). Orders of magnitude slower per event — meant
	// for small validation populations, not the million-device path.
	Empirical bool `json:"empirical,omitempty"`
	// Churn lists the population's churn/failure-injection rules.
	Churn []ChurnSpec `json:"churn,omitempty"`
}

// Spec is the fully-declarative, JSON-serializable description of a
// fleet run — the fleet twin of exper.GridSpec, submitted as-is to
// ehserved's POST /v1/fleets. Empty fields default to runnable values,
// so the minimal spec is `{"populations":[{"count":1000}]}`.
type Spec struct {
	Name     string `json:"name,omitempty"`
	BaseSeed uint64 `json:"baseSeed,omitempty"`
	// Epochs is the number of learning epochs; each device replays its
	// event schedule over its trace once per epoch (default 8).
	Epochs int `json:"epochs,omitempty"`
	// SnapshotEvery emits an aggregate snapshot every N epochs (default
	// 1; the final epoch always snapshots).
	SnapshotEvery int `json:"snapshotEvery,omitempty"`
	// Events is the number of schedule events per device-epoch (default
	// 40 — smaller than a grid point's 500 because the fleet multiplies
	// it by the device count).
	Events int `json:"events,omitempty"`
	// EventClasses is the label alphabet size (default 10).
	EventClasses int `json:"eventClasses,omitempty"`
	// Samples sizes the shared SynthCIFAR test set empirical
	// populations draw events from (default 128; ignored when every
	// population is surrogate).
	Samples int `json:"samples,omitempty"`

	Populations []PopulationSpec `json:"populations"`
}

// Fleet resolves the spec against the process-wide axis registries and
// returns the compiled, runnable fleet.
func (s *Spec) Fleet() (*Fleet, error) { return s.Resolve(nil) }

// Resolve is Fleet with a caller-supplied policy resolver consulted
// before the registries — how ehserved maps "artifact:<id>" policy
// names onto its uploaded artifacts, exactly as GridSpec.GridResolved
// does for grids.
func (s *Spec) Resolve(lookup func(name string) (exper.PolicySpec, bool)) (*Fleet, error) {
	if len(s.Populations) == 0 {
		return nil, fmt.Errorf("fleet: spec %q has no populations", s.Name)
	}
	f := &Fleet{
		Name:          s.Name,
		BaseSeed:      s.BaseSeed,
		Epochs:        s.Epochs,
		SnapshotEvery: s.SnapshotEvery,
		Events:        s.Events,
		EventClasses:  s.EventClasses,
	}
	if f.Name == "" {
		f.Name = "fleet"
	}
	if f.Epochs == 0 {
		f.Epochs = defaultEpochs
	}
	if f.SnapshotEvery == 0 {
		f.SnapshotEvery = 1
	}
	if f.Events == 0 {
		f.Events = defaultEvents
	}
	if f.EventClasses == 0 {
		f.EventClasses = defaultEventClasses
	}
	switch {
	case f.Epochs < 0:
		return nil, fmt.Errorf("fleet: spec %q has negative epochs", f.Name)
	case f.SnapshotEvery < 0:
		return nil, fmt.Errorf("fleet: spec %q has negative snapshotEvery", f.Name)
	case f.Events < 0:
		return nil, fmt.Errorf("fleet: spec %q has negative events", f.Name)
	case f.EventClasses < 0:
		return nil, fmt.Errorf("fleet: spec %q has negative eventClasses", f.Name)
	}

	start := 0
	empirical := false
	for pi := range s.Populations {
		p, err := resolvePopulation(f, &s.Populations[pi], pi, start, lookup)
		if err != nil {
			return nil, err
		}
		f.Pops = append(f.Pops, p)
		start += p.Count
		if start > maxDevices {
			return nil, fmt.Errorf("fleet: spec %q asks for more than %d devices", f.Name, maxDevices)
		}
		empirical = empirical || p.Empirical
	}
	f.Devices = start

	if empirical {
		n := s.Samples
		if n == 0 {
			n = defaultSamples
		}
		if n < 1 {
			return nil, fmt.Errorf("fleet: spec %q has non-positive samples", f.Name)
		}
		f.TestSet = dataset.NewGenerator(dataset.SynthConfig{
			Seed: exper.DeriveSeed(f.BaseSeed, 0, saltData),
		}).Generate(n)
	}
	return f, nil
}

// resolvePopulation compiles one population: axis names resolve to the
// device model and the shared deployment, the trace-variant pool is
// materialized from seed-jittered instances of the trace family, and
// the per-exit energy tables are precomputed for the step loop.
func resolvePopulation(f *Fleet, ps *PopulationSpec, pi, start int, lookup func(string) (exper.PolicySpec, bool)) (*Population, error) {
	name := ps.Name
	if name == "" {
		name = fmt.Sprintf("pop%d", pi)
	}
	if ps.Count < 1 {
		return nil, fmt.Errorf("fleet: population %q has count %d", name, ps.Count)
	}

	devName := ps.Device
	if devName == "" {
		devName = "MSP432"
	}
	devSpec, err := exper.LookupDevice(devName)
	if err != nil {
		return nil, fmt.Errorf("fleet: population %q: %w", name, err)
	}
	device := devSpec.Build()

	polName := ps.Policy
	if polName == "" {
		polName = "nonuniform"
	}
	var polSpec exper.PolicySpec
	resolved := false
	if lookup != nil {
		if p, ok := lookup(polName); ok {
			polSpec, resolved = p, true
		}
	}
	if !resolved {
		if polSpec, err = exper.LookupPolicy(polName); err != nil {
			return nil, fmt.Errorf("fleet: population %q: %w", name, err)
		}
	}
	var deployed *core.Deployed
	if polSpec.Deployed != nil {
		deployed = polSpec.Deployed()
	} else {
		// A compression policy deploys once per population; the seed
		// depends only on (BaseSeed, population index), so every device
		// of the population shares one bit-identical deployment.
		deployed, err = core.BuildDeployed(polSpec.Build(), exper.DeriveSeed(f.BaseSeed, uint64(pi), saltDeploy))
		if err != nil {
			return nil, fmt.Errorf("fleet: population %q: %w", name, err)
		}
	}
	if err := deployed.CheckFits(device); err != nil {
		return nil, fmt.Errorf("fleet: population %q: %w", name, err)
	}

	storage := ps.Storage.Storage
	if storage == (energy.Storage{}) {
		storage = exper.Capacitor(6).Storage
	}
	if err := storage.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: population %q: %w", name, err)
	}

	p := &Population{
		Name:       name,
		Index:      pi,
		Count:      ps.Count,
		Start:      start,
		Device:     device,
		Deployed:   deployed,
		Storage:    storage,
		Mode:       ps.Exit.Mode,
		Alpha:      defaultOr(ps.Alpha, 0.2),
		Gamma:      defaultOr(ps.Gamma, 0.9),
		Epsilon:    ps.Epsilon,
		EnergyBins: defaultIntOr(ps.EnergyBins, 10),
		PowerBins:  defaultIntOr(ps.PowerBins, 6),
		ConfBins:   defaultIntOr(ps.ConfBins, 8),
		Empirical:  ps.Empirical,
		Churn:      ps.Churn,
	}
	if p.EnergyBins < 1 || p.PowerBins < 1 || p.ConfBins < 1 {
		return nil, fmt.Errorf("fleet: population %q has non-positive Q-state bins", name)
	}
	switch p.Mode {
	case core.PolicyQLearning, core.PolicyStaticLUT:
	default:
		return nil, fmt.Errorf("fleet: population %q has unknown exit mode %d", name, int(p.Mode))
	}
	for ri, c := range ps.Churn {
		switch c.Kind {
		case ChurnLeave, ChurnJoin, ChurnDegrade:
		default:
			return nil, fmt.Errorf("fleet: population %q churn rule %d has unknown kind %q", name, ri, c.Kind)
		}
		if c.Prob < 0 || c.Prob > 1 {
			return nil, fmt.Errorf("fleet: population %q churn rule %d has probability %g outside [0,1]", name, ri, c.Prob)
		}
		if c.Rate < 0 {
			return nil, fmt.Errorf("fleet: population %q churn rule %d has negative rate", name, ri)
		}
	}

	// The decision kernel and its per-exit energy tables are built once
	// per population and shared read-only by every shard.
	p.Kernel = core.NewKernel(deployed, core.RuntimeConfig{Mode: p.Mode, Device: device, Storage: &storage})
	m := p.Kernel.NumExits()
	p.exitStride = p.EnergyBins * p.PowerBins * m
	p.incrStride = p.ConfBins * p.EnergyBins * 2

	if p.Empirical {
		pl, err := deployed.FloatPlan()
		if err != nil {
			return nil, fmt.Errorf("fleet: population %q cannot compile its plan for empirical mode: %w", name, err)
		}
		p.Plan = pl
	}

	// The trace-variant pool: a trace per device would be gigabytes at
	// fleet scale, so each device draws one of a small pool of
	// seed-jittered instances of the population's trace family.
	ts := ps.Trace
	if ts == (exper.TraceSpec{}) {
		ts = exper.SolarTrace(defaultTraceSeconds, defaultTracePeakMW)
	}
	variants := ps.TraceVariants
	if variants == 0 {
		variants = defaultTraceVariants
	}
	if variants < 1 {
		return nil, fmt.Errorf("fleet: population %q has non-positive traceVariants", name)
	}
	if variants > maxTraceVariants {
		return nil, fmt.Errorf("fleet: population %q asks for %d trace variants, more than %d", name, variants, maxTraceVariants)
	}
	if variants > p.Count {
		variants = p.Count
	}
	p.Traces = make([]*energy.Trace, variants)
	p.TracePeaks = make([]float64, variants)
	for v := 0; v < variants; v++ {
		tr, err := ts.Build(exper.DeriveSeed(f.BaseSeed, uint64(pi)<<20|uint64(v), saltTrace))
		if err != nil {
			return nil, fmt.Errorf("fleet: population %q trace variant %d: %w", name, v, err)
		}
		if tr.Duration() == 0 {
			return nil, fmt.Errorf("fleet: population %q trace %q is empty", name, ts.Name)
		}
		p.Traces[v] = tr
		p.TracePeaks[v] = tr.Peak()
	}
	return p, nil
}

func defaultOr(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

func defaultIntOr(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// Fleet is a compiled, runnable fleet: shared read-only deployments and
// trace pools per population, plus the resolved run shape. Build one
// with Spec.Resolve; run it with Engine.Run.
type Fleet struct {
	Name          string
	BaseSeed      uint64
	Epochs        int
	SnapshotEvery int
	Events        int
	EventClasses  int
	// Devices is the total simulated device count across populations.
	Devices int
	Pops    []*Population
	// TestSet is the shared SynthCIFAR set empirical populations draw
	// samples from (nil when every population is surrogate).
	TestSet *dataset.Set
}

// SnapshotCount returns how many snapshots a full run emits.
func (f *Fleet) SnapshotCount() int {
	if f.Epochs == 0 {
		return 0
	}
	n := f.Epochs / f.SnapshotEvery
	if f.Epochs%f.SnapshotEvery != 0 {
		n++ // the final epoch always snapshots
	}
	return n
}

// snapshotAt reports whether completing epoch ep emits a snapshot.
func (f *Fleet) snapshotAt(ep int) bool {
	return (ep+1)%f.SnapshotEvery == 0 || ep == f.Epochs-1
}

// Population is one compiled population: everything the sharded episode
// loop reads is precomputed here and shared read-only across workers.
type Population struct {
	Name  string
	Index int
	Count int
	// Start is the population's first global device index; global index
	// identity is what every per-device seed stream derives from.
	Start    int
	Device   *mcu.Device
	Deployed *core.Deployed
	// Plan is the shared compiled inference plan for empirical
	// populations (nil in surrogate mode). It is read-only; each worker
	// holds its own plan.Exec/plan.State.
	Plan    *plan.Plan
	Storage energy.Storage
	Mode    core.PolicyMode
	// Kernel is the population's §IV decision step; each worker runs
	// its devices through it.
	Kernel *core.Kernel

	Alpha, Gamma, Epsilon           float64
	EnergyBins, PowerBins, ConfBins int
	Empirical                       bool
	Churn                           []ChurnSpec

	Traces     []*energy.Trace
	TracePeaks []float64

	exitStride, incrStride int
}
