package exper

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// TraceKind selects the energy-trace generator for a TraceSpec.
type TraceKind string

// Supported trace kinds.
const (
	TraceSolar   TraceKind = "solar"
	TraceKinetic TraceKind = "kinetic"
	TraceCSV     TraceKind = "csv"
	// TraceRegistered resolves the spec's Name against the open trace
	// registry (see RegisterTrace) — how user-defined and file-backed
	// trace builders become grid axis values.
	TraceRegistered TraceKind = "registered"
)

// TraceSpec declaratively describes one energy trace axis value. It is
// pure data (JSON-serializable) so a grid can be logged alongside its
// results; the trace itself is materialized per point with the point's
// derived seed.
type TraceSpec struct {
	// Name labels the axis value in tables and aggregation keys.
	Name string    `json:"name"`
	Kind TraceKind `json:"kind"`
	// Seconds is the trace duration (0 = generator default, 6 h).
	Seconds int `json:"seconds,omitempty"`
	// PeakPower is the solar clear-sky peak or kinetic burst power in mW
	// (0 = generator default).
	PeakPower float64 `json:"peakPower,omitempty"`
	// Path locates the CSV file for TraceCSV specs.
	Path string `json:"path,omitempty"`
}

// Build materializes the trace with the given seed.
func (ts TraceSpec) Build(seed uint64) (*energy.Trace, error) {
	if ts.Seconds < 0 {
		return nil, fmt.Errorf("exper: trace %q has negative seconds", ts.Name)
	}
	switch ts.Kind {
	case TraceSolar:
		return energy.SyntheticSolarTrace(energy.SolarConfig{
			Seconds: ts.Seconds, PeakPower: ts.PeakPower, Seed: seed,
		}), nil
	case TraceKinetic:
		return energy.SyntheticKineticTrace(energy.KineticConfig{
			Seconds: ts.Seconds, BurstPower: ts.PeakPower, Seed: seed,
		}), nil
	case TraceCSV:
		return energy.TraceFromCSV(ts.Path)(seed)
	case TraceRegistered:
		build, err := LookupTrace(ts.Name)
		if err != nil {
			return nil, err
		}
		return build(seed)
	default:
		return nil, fmt.Errorf("exper: unknown trace kind %q", ts.Kind)
	}
}

// RegisteredTrace references a trace builder registered under name (see
// RegisterTrace) as an axis value.
func RegisteredTrace(name string) TraceSpec {
	return TraceSpec{Name: name, Kind: TraceRegistered}
}

// SolarTrace is the common solar axis value.
func SolarTrace(seconds int, peakMW float64) TraceSpec {
	return TraceSpec{
		Name: fmt.Sprintf("solar-%.3fmW", peakMW),
		Kind: TraceSolar, Seconds: seconds, PeakPower: peakMW,
	}
}

// KineticTrace is the common kinetic axis value.
func KineticTrace(seconds int, burstMW float64) TraceSpec {
	return TraceSpec{
		Name: fmt.Sprintf("kinetic-%.3fmW", burstMW),
		Kind: TraceKinetic, Seconds: seconds, PeakPower: burstMW,
	}
}

// DeviceSpec names one MCU axis value. Build constructs a fresh device
// per point so concurrent points never share model state.
type DeviceSpec struct {
	Name  string             `json:"name"`
	Build func() *mcu.Device `json:"-"`
}

// Device wraps a device constructor as an axis value.
func Device(name string, build func() *mcu.Device) DeviceSpec {
	return DeviceSpec{Name: name, Build: build}
}

// PolicySpec names one deployment axis value: either a compression
// policy (Build constructs a fresh policy per deployment; the engine
// compresses LeNet-EE with it) or a pre-built deployment (Deployed
// returns a shared read-only *core.Deployed — e.g. one restored from a
// saved artifact — and Build is nil).
type PolicySpec struct {
	Name  string                  `json:"name"`
	Build func() *compress.Policy `json:"-"`
	// Deployed, when non-nil, wins over Build: the axis value is the
	// returned pre-built deployment and no compression runs.
	Deployed func() *core.Deployed `json:"-"`
}

// Policy wraps a policy constructor as an axis value.
func Policy(name string, build func() *compress.Policy) PolicySpec {
	return PolicySpec{Name: name, Build: build}
}

// PolicyFromDeployed wraps a pre-built deployment as an axis value. The
// deployment is shared read-only by every point that uses it.
func PolicyFromDeployed(name string, d *core.Deployed) PolicySpec {
	return PolicySpec{Name: name, Deployed: func() *core.Deployed { return d }}
}

// ExitSpec names one runtime exit-policy axis value.
type ExitSpec struct {
	Name string          `json:"name"`
	Mode core.PolicyMode `json:"mode"`
	// Warmup is the number of Q-learning warm-up episodes (0 = the
	// CompareConfig default of 12; ignored by the static LUT).
	Warmup int `json:"warmup,omitempty"`
}

// StorageSpec names one capacitor axis value. The Storage is copied per
// point, so the template is never mutated by a simulation.
type StorageSpec struct {
	Name    string         `json:"name"`
	Storage energy.Storage `json:"storage"`
}

// Capacitor is the common storage axis value: the paper's default
// thresholds at the given capacity.
func Capacitor(capacityMJ float64) StorageSpec {
	return StorageSpec{
		Name: fmt.Sprintf("%.1fmJ", capacityMJ),
		Storage: energy.Storage{
			CapacityMJ: capacityMJ, TurnOnMJ: 0.5, BrownOutMJ: 0.05,
			ChargeEfficiency: 0.9, LeakMWPerS: 0.0002,
		},
	}
}

// Grid is a declarative cross product of scenario axes. Every combination
// of trace × device × policy × exit × storage × seed is one Point; the
// engine shards points across workers.
type Grid struct {
	// Name labels the grid in tables and JSON output.
	Name string `json:"name"`
	// BaseSeed perturbs every point's derived seed, so two grids with the
	// same axes but different base seeds are independent replications.
	BaseSeed uint64 `json:"baseSeed"`
	// Events is the number of schedule events per point (default 500).
	Events int `json:"events,omitempty"`
	// EventClasses is the label alphabet size (default 10).
	EventClasses int `json:"eventClasses,omitempty"`
	// Baselines additionally runs SonicNet, SpArSeNet, and LeNet-Cifar on
	// every point (3 extra simulations per point).
	Baselines bool `json:"baselines,omitempty"`
	// Backend names the empirical-mode inference backend ("plan" — the
	// default compiled zero-allocation plan —, "legacy", or "int8"; see
	// core.BackendNames). Surrogate-mode points never execute the
	// network, so it only affects grids whose runs attach samples.
	Backend string `json:"backend,omitempty"`
	// Schedule names the event-schedule generator applied per point
	// ("" = "uniform"; see ScheduleNames and RegisterSchedule).
	Schedule string `json:"schedule,omitempty"`

	Traces   []TraceSpec   `json:"traces"`
	Devices  []DeviceSpec  `json:"devices"`
	Policies []PolicySpec  `json:"policies"`
	Exits    []ExitSpec    `json:"exits"`
	Storages []StorageSpec `json:"storages"`
	Seeds    []uint64      `json:"seeds"`
}

// Validate reports an unusable grid.
func (g *Grid) Validate() error {
	switch {
	case len(g.Traces) == 0:
		return fmt.Errorf("exper: grid %q has no traces", g.Name)
	case len(g.Devices) == 0:
		return fmt.Errorf("exper: grid %q has no devices", g.Name)
	case len(g.Policies) == 0:
		return fmt.Errorf("exper: grid %q has no policies", g.Name)
	case len(g.Exits) == 0:
		return fmt.Errorf("exper: grid %q has no exit policies", g.Name)
	case len(g.Storages) == 0:
		return fmt.Errorf("exper: grid %q has no storages", g.Name)
	case len(g.Seeds) == 0:
		return fmt.Errorf("exper: grid %q has no seeds", g.Name)
	case g.Events < 0:
		return fmt.Errorf("exper: grid %q has negative event count", g.Name)
	}
	if _, err := core.ParseBackend(g.Backend); err != nil {
		return fmt.Errorf("exper: grid %q: %w", g.Name, err)
	}
	if _, err := LookupSchedule(g.Schedule); err != nil {
		return fmt.Errorf("exper: grid %q: %w", g.Name, err)
	}
	// Vet every named trace axis up front, like the other named axes, so
	// a typo fails the submission instead of every point at run time.
	for _, ts := range g.Traces {
		switch ts.Kind {
		case TraceSolar, TraceKinetic:
		case TraceCSV:
			if ts.Path == "" {
				return fmt.Errorf("exper: grid %q: csv trace %q has no path", g.Name, ts.Name)
			}
		case TraceRegistered:
			if _, err := LookupTrace(ts.Name); err != nil {
				return fmt.Errorf("exper: grid %q: %w", g.Name, err)
			}
		default:
			return fmt.Errorf("exper: grid %q: unknown trace kind %q", g.Name, ts.Kind)
		}
	}
	names := map[string]bool{}
	for _, p := range g.Policies {
		if p.Name == "" || names[p.Name] {
			return fmt.Errorf("exper: grid %q needs unique non-empty policy names (got %q twice or empty)", g.Name, p.Name)
		}
		if p.Build == nil && p.Deployed == nil {
			return fmt.Errorf("exper: grid %q policy %q has neither a policy constructor nor a deployment", g.Name, p.Name)
		}
		names[p.Name] = true
	}
	return nil
}

func (g *Grid) events() int {
	if g.Events > 0 {
		return g.Events
	}
	return 500
}

func (g *Grid) classes() int {
	if g.EventClasses > 0 {
		return g.EventClasses
	}
	return 10
}

// Size returns the number of points in the cross product.
func (g *Grid) Size() int {
	return len(g.Traces) * len(g.Devices) * len(g.Policies) * len(g.Exits) * len(g.Storages) * len(g.Seeds)
}

// Point is one fully-resolved scenario of the grid.
type Point struct {
	// Index is the point's position in row-major enumeration order
	// (trace outermost, seed innermost).
	Index int `json:"index"`

	Trace   TraceSpec   `json:"trace"`
	Device  DeviceSpec  `json:"device"`
	Policy  PolicySpec  `json:"policy"`
	Exit    ExitSpec    `json:"exit"`
	Storage StorageSpec `json:"storage"`
	// Seed is the user-visible replicate seed from the grid's Seeds axis.
	Seed uint64 `json:"seed"`
	// RunSeed is the derived seed that actually drives the point's trace,
	// schedule, and runtime RNG streams. It is a pure function of
	// (BaseSeed, Index, Seed) — never of shared state or scheduling
	// order — which is what makes engine output independent of the worker
	// count.
	RunSeed uint64 `json:"runSeed"`
	// DeploySeed drives the deployment (network init + compression). It
	// depends only on (BaseSeed, policy index): the paper deploys ONE
	// compressed model and varies the conditions around it, so all points
	// sharing a policy share a bit-identical deployment — which also lets
	// the engine build each deployment once instead of once per point.
	DeploySeed uint64 `json:"deploySeed"`
}

// GroupKey identifies the point's scenario with the seed axis removed —
// the grouping used for across-seed aggregation.
func (p Point) GroupKey() string {
	return fmt.Sprintf("%s|%s|%s|%s|%s",
		p.Trace.Name, p.Device.Name, p.Policy.Name, p.Exit.Name, p.Storage.Name)
}

// deploySalt separates the deployment seed space from the per-point
// stream space.
const deploySalt = 0xdeb7_0000_0000

// DeploySeedFor returns the deployment seed for the i-th policy axis
// value.
func (g *Grid) DeploySeedFor(policyIdx int) uint64 {
	return deriveSeed(g.BaseSeed, deploySalt, uint64(policyIdx))
}

// Points enumerates the cross product in deterministic row-major order.
func (g *Grid) Points() []Point {
	pts := make([]Point, 0, g.Size())
	idx := 0
	for _, tr := range g.Traces {
		for _, dev := range g.Devices {
			for pi, pol := range g.Policies {
				for _, ex := range g.Exits {
					for _, st := range g.Storages {
						for _, seed := range g.Seeds {
							pts = append(pts, Point{
								Index: idx, Trace: tr, Device: dev, Policy: pol,
								Exit: ex, Storage: st, Seed: seed,
								RunSeed:    deriveSeed(g.BaseSeed, uint64(idx), seed),
								DeploySeed: g.DeploySeedFor(pi),
							})
							idx++
						}
					}
				}
			}
		}
	}
	return pts
}

// DeriveSeed exposes the engine's stream-derivation mix for callers that
// need sibling streams outside a grid (the Session façade derives its
// per-use RNGs through this, so session-scoped randomness and grid
// randomness share one scheme).
func DeriveSeed(base, stream, salt uint64) uint64 {
	return deriveSeed(base, stream, salt)
}

// deriveSeed mixes the grid base seed, the point index, and the replicate
// seed through two splitmix64 avalanche rounds. Distinct inputs map to
// well-separated streams, and the result depends only on the point's
// identity — per-shard determinism falls out of that.
func deriveSeed(base, index, seed uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(index+1) + 0x632be59bd9b4e019*(seed+1)
	for i := 0; i < 2; i++ {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z = z ^ (z >> 31)
	}
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}
