package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	ehinfer "repro"
	"repro/internal/mcu"
)

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitForResults polls the job to completion and fetches its final
// result document.
func waitForResults(t *testing.T, base, id string) map[string]any {
	t.Helper()
	gridCase.wait(t, base, id, StateDone)
	return getJSON(t, base+"/v1/grids/"+id+"/results")
}

// encodeTestArtifact builds a small deterministic deployment artifact.
func encodeTestArtifact(t testing.TB, name string) []byte {
	t.Helper()
	session := ehinfer.NewSession(ehinfer.WithSeed(5))
	d, err := session.BuildDeployed(ehinfer.Fig1bNonuniform())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ehinfer.EncodeDeployed(&buf, &ehinfer.DeploymentBundle{Name: name, Deployed: d}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeArtifactUploadRunDownload is the artifact lifecycle e2e:
// upload a bundle, run a grid that references it by policy name, and
// download it back byte-identically.
func TestServeArtifactUploadRunDownload(t *testing.T) {
	_, ts := newTestServer(t, 2)
	data := encodeTestArtifact(t, "e2e-artifact")

	// Upload.
	resp, err := http.Post(ts.URL+"/v1/artifacts", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Policy string `json:"policy"`
		Exits  int    `json:"exits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	if up.Name != "e2e-artifact" || up.Exits != 3 || up.Policy != "artifact:"+up.ID {
		t.Fatalf("unexpected upload response: %+v", up)
	}

	// The registry lists it.
	reg := getJSON(t, ts.URL+"/v1/registry")
	found := false
	for _, a := range reg["artifacts"].([]any) {
		if a == up.Policy {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry does not list %q: %v", up.Policy, reg["artifacts"])
	}

	// Run a grid on the uploaded deployment.
	spec := fmt.Sprintf(`{"name":"art-grid","events":20,
		"traces":[{"name":"s","kind":"solar","seconds":900,"peakPower":0.05}],
		"policies":[%q],"seeds":[1]}`, up.Policy)
	sub := postJSON(t, ts.URL+"/v1/grids", spec)
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("grid referencing artifact rejected: %v", sub)
	}
	final := waitForResults(t, ts.URL, id)
	results := final["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("expected 1 result, got %d", len(results))
	}
	if errMsg, ok := results[0].(map[string]any)["err"]; ok {
		t.Fatalf("artifact-backed point failed: %v", errMsg)
	}

	// Download must be byte-identical to the upload.
	dl, err := http.Get(ts.URL + "/v1/artifacts/" + up.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(dl.Body)
	dl.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("downloaded artifact differs from the uploaded bytes")
	}

	// Delete; subsequent submissions referencing it must fail.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/artifacts/"+up.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", delResp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("grid naming a deleted artifact: status %d, want 400", resp2.StatusCode)
	}
}

// TestServeArtifactRejectsCorrupt: a truncated upload must 400 without
// polluting the store.
func TestServeArtifactRejectsCorrupt(t *testing.T) {
	_, ts := newTestServer(t, 1)
	data := encodeTestArtifact(t, "x")
	resp, err := http.Post(ts.URL+"/v1/artifacts", "application/octet-stream", bytes.NewReader(data[:len(data)-7]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload status %d, want 400", resp.StatusCode)
	}
	list := getJSON(t, ts.URL+"/v1/artifacts")
	if arts := list["artifacts"].([]any); len(arts) != 0 {
		t.Fatalf("corrupt upload was stored: %v", arts)
	}
}

// TestServeRuntimeRegisteredDevice is the acceptance-criterion e2e: an
// MCU registered at runtime through the public API is runnable by name
// in a GridSpec submitted over HTTP, and /v1/registry reflects it.
func TestServeRuntimeRegisteredDevice(t *testing.T) {
	name := uniqueName("serve-e2e-mcu")
	if err := ehinfer.RegisterDevice(name, func() *ehinfer.Device {
		d := mcu.MSP432()
		d.Name = name
		d.EnergyPerMFLOP = 1.0
		return d
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, 2)

	reg := getJSON(t, ts.URL+"/v1/registry")
	found := false
	for _, dev := range reg["devices"].([]any) {
		if dev == name {
			found = true
		}
	}
	if !found {
		t.Fatal("/v1/registry does not reflect the runtime-registered device")
	}

	spec := fmt.Sprintf(`{"name":"custom-dev","events":20,
		"traces":[{"name":"s","kind":"solar","seconds":900,"peakPower":0.05}],
		"devices":[%q],"seeds":[1]}`, name)
	sub := postJSON(t, ts.URL+"/v1/grids", spec)
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("grid on registered device rejected: %v", sub)
	}
	final := waitForResults(t, ts.URL, id)
	res := final["results"].([]any)[0].(map[string]any)
	if errMsg, ok := res["err"]; ok {
		t.Fatalf("point on registered device failed: %v", errMsg)
	}
	point := res["point"].(map[string]any)
	if dev := point["device"].(map[string]any)["name"]; dev != name {
		t.Fatalf("point ran on %v, want %s", dev, name)
	}
}

// TestServeRegisteredScheduleAndTrace submits a grid whose schedule and
// trace are runtime registrations.
func TestServeRegisteredScheduleAndTrace(t *testing.T) {
	sched := uniqueName("serve-e2e-bursty")
	if err := ehinfer.RegisterSchedule(sched, func(n, duration, classes int, seed uint64) *ehinfer.Schedule {
		return ehinfer.BurstySchedule(n, duration, classes, 3, seed)
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, 1)
	spec := fmt.Sprintf(`{"name":"custom-axes","events":20,"schedule":%q,
		"traces":[{"name":"paper-kinetic","kind":"registered"}],"seeds":[1]}`, sched)
	sub := postJSON(t, ts.URL+"/v1/grids", spec)
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("grid on registered schedule/trace rejected: %v", sub)
	}
	final := waitForResults(t, ts.URL, id)
	res := final["results"].([]any)[0].(map[string]any)
	if errMsg, ok := res["err"]; ok {
		t.Fatalf("point failed: %v", errMsg)
	}
}
