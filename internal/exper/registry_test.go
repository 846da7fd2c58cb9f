package exper

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// regSeq numbers registrations so every pass of a test (-count=N,
// -cpu=1,4) claims fresh names in the process-global registries.
var regSeq atomic.Int64

// uniqueName returns base with a process-unique suffix.
func uniqueName(base string) string {
	return fmt.Sprintf("%s-%d", base, regSeq.Add(1))
}

func TestRegisterDuplicateAndEmptyNames(t *testing.T) {
	if err := RegisterDevice("", mcu.MSP432); err == nil {
		t.Error("empty device name must be rejected")
	}
	if err := RegisterDevice("MSP432", mcu.MSP432); err == nil {
		t.Error("duplicate device name must be rejected")
	}
	name := uniqueName("reg-dup-test")
	if err := RegisterDevice(name, nil); err == nil {
		t.Error("nil device constructor must be rejected")
	}
	if err := RegisterDevice(name, mcu.MSP432); err != nil {
		t.Fatal(err)
	}
	if err := RegisterDevice(name, mcu.MSP432); err == nil {
		t.Error("re-registration must be rejected")
	}
	if err := RegisterPolicy("nonuniform", compress.Fig1bNonuniform); err == nil {
		t.Error("duplicate policy name must be rejected")
	}
	if err := RegisterSchedule("uniform", nil); err == nil {
		t.Error("duplicate/nil schedule must be rejected")
	}
}

// TestRegisteredAxesResolve runs a tiny grid whose device, trace, and
// schedule are all runtime registrations.
func TestRegisteredAxesResolve(t *testing.T) {
	device, trace, sched := uniqueName("reg-axes-mcu"), uniqueName("reg-axes-trace"), uniqueName("reg-axes-sched")
	if err := RegisterDevice(device, func() *mcu.Device {
		d := mcu.MSP432()
		d.Name = device
		return d
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterTrace(trace, func(seed uint64) (*energy.Trace, error) {
		return energy.ConstantTrace(600, 0.05), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterSchedule(sched, func(n, duration, classes int, seed uint64) *energy.Schedule {
		return energy.UniformSchedule(n, duration, classes, seed)
	}); err != nil {
		t.Fatal(err)
	}
	spec := GridSpec{
		Name:     "registered-axes",
		Events:   20,
		Devices:  []string{device},
		Schedule: sched,
		Traces:   []TraceSpec{RegisteredTrace(trace)},
		Seeds:    []uint64{1},
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(1).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		t.Fatalf("grid errors: %v", errs)
	}
	if res.Results[0].Point.Device.Name != device {
		t.Fatal("registered device did not reach the point")
	}
}

// TestRegisteredDeploymentResolvesAsPolicy verifies a pre-built
// deployment registered by name is usable through the policy axis and
// produces the exact result of using the deployment directly.
func TestRegisteredDeploymentResolvesAsPolicy(t *testing.T) {
	d, err := core.BuildDeployed(compress.Fig1bNonuniform(), 77)
	if err != nil {
		t.Fatal(err)
	}
	name := uniqueName("reg-deploy-test")
	if err := RegisterDeployment(name, d); err != nil {
		t.Fatal(err)
	}
	if err := RegisterDeployment(name, d); err == nil {
		t.Error("duplicate deployment registration must be rejected")
	}
	// The two registries share the LookupPolicy namespace: a name in one
	// may not be claimed in the other (it would be silently shadowed).
	if err := RegisterPolicy(name, compress.Fig1bNonuniform); err == nil {
		t.Error("policy registration over a deployment name must be rejected")
	}
	if err := RegisterDeployment("nonuniform", d); err == nil {
		t.Error("deployment registration over a built-in policy name must be rejected")
	}
	spec := GridSpec{Name: "dep", Events: 20, Policies: []string{name}, Seeds: []uint64{1}}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := NewEngine(1).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if errs := viaRegistry.Errs(); len(errs) != 0 {
		t.Fatalf("grid errors: %v", errs)
	}

	direct := &Grid{
		Name: "dep", Events: 20,
		Traces:   []TraceSpec{PaperSolarTrace(0.032)},
		Devices:  []DeviceSpec{MSP432Device()},
		Policies: []PolicySpec{PolicyFromDeployed(name, d)},
		Exits:    []ExitSpec{QLearningExit(0)},
		Storages: []StorageSpec{Capacitor(6)},
		Seeds:    []uint64{1},
	}
	want, err := NewEngine(1).Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	a, err := viaRegistry.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed is wall-clock; compare the deterministic parts by zeroing
	// it out of both documents.
	if stripElapsed(string(a)) != stripElapsed(string(b)) {
		t.Fatal("registry-resolved deployment diverges from direct use")
	}
}

func stripElapsed(s string) string {
	out := s
	for {
		i := strings.Index(out, `"elapsed"`)
		if i < 0 {
			return out
		}
		j := i
		for j < len(out) && out[j] != ',' && out[j] != '}' {
			j++
		}
		out = out[:i] + out[j:]
	}
}

// TestCSVTraceAsGridAxis: a trace file written with the tracegen codec
// is usable as a grid axis — both directly (kind "csv") and registered
// by name through energy.TraceFromCSV — and the two paths are
// bit-identical.
func TestCSVTraceAsGridAxis(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measured.csv")
	if err := energy.SaveTraceCSV(path, energy.ConstantTrace(600, 0.06)); err != nil {
		t.Fatal(err)
	}
	name := uniqueName("csv-axis-test")
	if err := RegisterTrace(name, energy.TraceFromCSV(path)); err != nil {
		t.Fatal(err)
	}
	// The two specs describe the same file differently, so the embedded
	// grids differ; the simulated rows must not.
	run := func(ts TraceSpec) string {
		t.Helper()
		g := &Grid{
			Name: "csv-axis", Events: 20,
			Traces:   []TraceSpec{ts},
			Devices:  []DeviceSpec{MSP432Device()},
			Policies: []PolicySpec{NonuniformPolicy()},
			Exits:    []ExitSpec{QLearningExit(2)},
			Storages: []StorageSpec{Capacitor(6)},
			Seeds:    []uint64{1},
		}
		res, err := NewEngine(1).Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if errs := res.Errs(); len(errs) != 0 {
			t.Fatalf("grid errors: %v", errs)
		}
		rows, err := json.Marshal(res.Results[0].Rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(rows)
	}
	direct := run(TraceSpec{Name: name, Kind: TraceCSV, Path: path})
	registered := run(RegisteredTrace(name))
	if direct != registered {
		t.Fatal("csv-kind and registered-kind trace axes diverge on the same file")
	}
}

// TestRegistryConcurrency races registrations against lookups and name
// listings — the data race the RWMutex closes (run with -race).
func TestRegistryConcurrency(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			_ = RegisterDevice(fmt.Sprintf("race-mcu-%d", i), mcu.MSP432)
			_ = RegisterPolicy(fmt.Sprintf("race-pol-%d", i), compress.Fig1bNonuniform)
			_ = RegisterSchedule(fmt.Sprintf("race-sched-%d", i), func(n, d, c int, s uint64) *energy.Schedule {
				return energy.UniformSchedule(n, d, c, s)
			})
		}(i)
		go func() {
			defer wg.Done()
			_ = DeviceNames()
			_ = PolicyNames()
			_ = ScheduleNames()
			_ = TraceNames()
			_ = DeploymentNames()
		}()
		go func(i int) {
			defer wg.Done()
			_, _ = LookupDevice(fmt.Sprintf("race-mcu-%d", i))
			_, _ = LookupPolicy("nonuniform")
			_, _ = LookupSchedule("")
		}(i)
	}
	wg.Wait()
}
