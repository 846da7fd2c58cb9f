package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ehinfer "repro"
	"repro/internal/store"
)

// durableServer builds a server over a store rooted at dir. Unlike
// newHTTPServer it does not register cleanup shutdown — restart tests
// shut down explicitly to model the boot/stop cycle.
func durableServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	sv := New(
		WithSession(ehinfer.NewSession(ehinfer.WithWorkers(workers))),
		WithStore(st),
	)
	ts := httptest.NewServer(sv)
	return sv, ts
}

func shutdownServer(t *testing.T, sv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func download(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/artifacts/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download %s: status %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArtifactsPersistAcrossRestart: uploaded artifacts come back after
// a restart under the same IDs with identical bytes, deletes are
// durable, and the ID sequence does not reuse old names.
func TestArtifactsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a1 := encodeTestArtifact(t, "persist-one")
	a2 := encodeTestArtifact(t, "persist-two")

	sv, ts := durableServer(t, dir, 1)
	id1 := uploadArtifact(t, ts.URL, a1)
	id2 := uploadArtifact(t, ts.URL, a2)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/artifacts/"+id2, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if got := download(t, ts2.URL, id1); !bytes.Equal(got, a1) {
		t.Fatalf("artifact %s changed across restart: %d vs %d bytes", id1, len(got), len(a1))
	}
	if code, _ := getBody(t, ts2.URL+"/v1/artifacts/"+id2); code != http.StatusNotFound {
		t.Fatalf("deleted artifact %s resurrected: %d", id2, code)
	}
	// The restored sequence continues past the highest stored ID even
	// though id2 was deleted — IDs are never reused.
	id3 := uploadArtifact(t, ts2.URL, encodeTestArtifact(t, "persist-three"))
	if id3 == id1 || id3 == id2 {
		t.Fatalf("restart reused artifact id %s", id3)
	}
	// Recovery is visible in metrics.
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mArtifactRecovery+`{outcome="restored"} 1`) {
		t.Fatalf("restore not counted:\n%s", grepMetrics(metrics, mArtifactRecovery))
	}
	// Inference against the restored artifact works end to end.
	if code, _ := postInfer(t, ts2.URL, inferBody(id1, 1)); code != http.StatusOK {
		t.Fatalf("infer against restored artifact: %d", code)
	}
}

// TestQuarantinedArtifactNotServed: a corrupted artifact file is
// quarantined at boot and counted, while healthy artifacts keep
// serving.
func TestQuarantinedArtifactNotServed(t *testing.T) {
	dir := t.TempDir()
	good := encodeTestArtifact(t, "survivor")

	sv, ts := durableServer(t, dir, 1)
	goodID := uploadArtifact(t, ts.URL, good)
	badID := uploadArtifact(t, ts.URL, encodeTestArtifact(t, "victim"))
	shutdownServer(t, sv, ts)

	// Corrupt the second artifact on disk: truncate to half.
	path := filepath.Join(dir, "artifacts", badID+".ehar")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if got := download(t, ts2.URL, goodID); !bytes.Equal(got, good) {
		t.Fatal("healthy artifact damaged by recovery")
	}
	if code, _ := getBody(t, ts2.URL+"/v1/artifacts/"+badID); code != http.StatusNotFound {
		t.Fatalf("corrupt artifact served: %d", code)
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mArtifactRecovery+`{outcome="undecodable"} 1`) &&
		!strings.Contains(metrics, mArtifactRecovery+`{outcome="quarantined"} 1`) {
		t.Fatalf("corruption not counted:\n%s", grepMetrics(metrics, mArtifactRecovery))
	}
}

// TestUnfinishedJobResumesAcrossRestart is the crash-recovery
// centerpiece: a job interrupted mid-run by shutdown resumes on the
// next boot from its journal — restored points are not re-run — and the
// final document is byte-identical to an uninterrupted run of the same
// spec.
func TestUnfinishedJobResumesAcrossRestart(t *testing.T) {
	// The reference: the same spec run start-to-finish on a store-less
	// server. The determinism contract says any interleaving of restore
	// + re-run must reproduce these bytes exactly.
	_, ref := newTestServer(t, 1)
	refSub := postJSON(t, ref.URL+"/v1/grids", slowSpec)
	refID := refSub["id"].(string)
	gridCase.wait(t, ref.URL, refID, StateDone)
	_, want := getBody(t, ref.URL+"/v1/grids/"+refID+"/results")

	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)

	// Wait until the journal holds at least one point but the run is not
	// done, then stop the server mid-job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := gridCase.status(t, ts.URL, id)
		if st.Completed >= 1 && st.State == StateRunning {
			break
		}
		if st.State == StateDone {
			t.Skip("grid finished before the shutdown could interrupt it")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed a point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	st := gridCase.status(t, ts2.URL, id)
	if st.State != StateRunning && st.State != StateDone {
		t.Fatalf("resumed job state = %q (err %s)", st.State, st.Err)
	}
	gridCase.wait(t, ts2.URL, id, StateDone)
	code, got := getBody(t, ts2.URL+"/v1/grids/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("resumed results: %d", code)
	}
	if got != want {
		t.Fatalf("resumed run diverged from uninterrupted reference:\nref: %d bytes\ngot: %d bytes", len(want), len(got))
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, mJobsResumed+" 1") {
		t.Fatalf("resume not counted:\n%s", grepMetrics(metrics, mJobsResumed))
	}
	if !strings.Contains(metrics, mJobPointsRestored) {
		t.Fatalf("restored points not counted:\n%s", grepMetrics(metrics, mJobPointsRestored))
	}

	// The journal is finalized: a third boot serves the job as finished
	// without resuming anything.
	shutdownServer(t, sv2, ts2)
	sv3, ts3 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv3, ts3)
	if st := gridCase.status(t, ts3.URL, id); st.State != StateDone {
		t.Fatalf("third boot job state = %q", st.State)
	}
	_, got3 := getBody(t, ts3.URL+"/v1/grids/"+id+"/results")
	if got3 != want {
		t.Fatal("final document drifted on the finalized boot")
	}
}

// TestCanceledJobNotResumed: DELETE aborts the journal, so the next
// boot does not resurrect a job the operator killed.
func TestCanceledJobNotResumed(t *testing.T) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 1)
	sub := postJSON(t, ts.URL+"/v1/grids", slowSpec)
	id := sub["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/grids/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gridCase.wait(t, ts.URL, id, StateCanceled)
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 1)
	defer shutdownServer(t, sv2, ts2)
	if code, _ := getBody(t, ts2.URL+"/v1/grids/"+id); code != http.StatusNotFound {
		t.Fatalf("canceled job came back: %d", code)
	}
	_, metrics := getBody(t, ts2.URL+"/metrics")
	if strings.Contains(metrics, mJobsResumed+" 1") {
		t.Fatal("canceled job was resumed")
	}
}
