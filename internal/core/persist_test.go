package core

import (
	"bytes"
	"testing"

	"repro/internal/compress"
)

func TestAgentPersistenceRoundTrip(t *testing.T) {
	sc := smallScenario(11)
	d := testDeployed(t, 11)
	rt1, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Storage: sc.Storage, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Learn something, then persist.
	for ep := 0; ep < 3; ep++ {
		if _, err := rt1.Run(sc.Trace, sc.Schedule); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rt1.SaveAgents(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh runtime restored from the blob must behave identically
	// under greedy evaluation with matching seeds.
	rt2, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Storage: sc.Storage, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadAgents(&buf); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < rt1.ExitAgent().Table.NumStates; s++ {
		for a := 0; a < rt1.ExitAgent().Table.NumActions; a++ {
			if rt1.ExitAgent().Table.Q(s, a) != rt2.ExitAgent().Table.Q(s, a) {
				t.Fatal("restored exit table differs")
			}
		}
	}
}

func TestLoadAgentsRejectsGeometryMismatch(t *testing.T) {
	sc := smallScenario(12)
	d := testDeployed(t, 12)
	rt1, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Storage: sc.Storage, Seed: 12, EnergyBins: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt1.SaveAgents(&buf); err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Storage: sc.Storage, Seed: 12, EnergyBins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadAgents(&buf); err == nil {
		t.Fatal("mismatched table geometry accepted")
	}
}

func TestLoadAgentsRejectsGarbage(t *testing.T) {
	d, err := BuildDeployed(compress.Fig1bNonuniform(), 13)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(d, RuntimeConfig{Mode: PolicyQLearning, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadAgents(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}
