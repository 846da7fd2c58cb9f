package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	ehinfer "repro"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/store"
)

// jobKindCase is one job kind as the contract tests drive it over HTTP.
type jobKindCase struct {
	kind       string // jobKind.name
	fast, slow string // a spec that finishes quickly, one that reliably runs long
}

var (
	gridCase     = jobKindCase{"grid", fastSpec, slowSpec}
	fleetCase    = jobKindCase{"fleet", fastFleetSpec, slowFleetSpec}
	jobKindCases = []jobKindCase{gridCase, fleetCase}
)

func (c jobKindCase) url(base string, path ...string) string {
	return base + "/v1/" + c.kind + "s" + strings.Join(path, "")
}

func (c jobKindCase) status(t *testing.T, base, id string) JobStatus {
	t.Helper()
	code, body := getBody(t, c.url(base, "/", id))
	if code != http.StatusOK {
		t.Fatalf("%s %s status: %d %s", c.kind, id, code, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (c jobKindCase) wait(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := c.status(t, base, id)
		if st.State == want {
			return st
		}
		if st.State != StateRunning {
			t.Fatalf("%s %s reached %q while waiting for %q (err: %s)", c.kind, id, st.State, want, st.Err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s %s never reached %q", c.kind, id, want)
	return JobStatus{}
}

func (c jobKindCase) cancel(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, c.url(base, "/", id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel %s: %d", id, resp.StatusCode)
	}
}

// ndjson fetches a job's ?format=ndjson view: the item lines and the
// decoded summary line that ends it.
func (c jobKindCase) ndjson(t *testing.T, base, id string) ([]string, map[string]any) {
	t.Helper()
	resp, err := http.Get(c.url(base, "/", id, "/results?format=ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("%s %s: empty NDJSON stream", c.kind, id)
	}
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil || summary["done"] != true {
		t.Fatalf("%s %s: bad summary line %q (%v)", c.kind, id, lines[len(lines)-1], err)
	}
	return lines[:len(lines)-1], summary
}

// TestJobContract pins the behaviour every job kind shares, so the one
// job machinery cannot serve one kind differently from the other.
func TestJobContract(t *testing.T) {
	for _, c := range jobKindCases {
		t.Run(c.kind, func(t *testing.T) {
			t.Run("ResultsConflictWhileRunning", func(t *testing.T) { testResultsConflict(t, c) })
			t.Run("ShutdownCancelsRunning", func(t *testing.T) { testShutdownCancels(t, c) })
			t.Run("FinishedRestoredAcrossRestart", func(t *testing.T) { testFinishedRestored(t, c) })
			t.Run("ConcurrentFollowers", func(t *testing.T) { testConcurrentFollowers(t, c) })
		})
	}
}

// testResultsConflict: the final-document endpoint refuses mid-run
// fetches with 409 and points at the streaming view; DELETE then cancels
// the run before it completes.
func testResultsConflict(t *testing.T, c jobKindCase) {
	_, ts := newTestServer(t, 1)
	id := postJSON(t, c.url(ts.URL), c.slow)["id"].(string)

	code, body := getBody(t, c.url(ts.URL, "/", id, "/results"))
	if code != http.StatusConflict {
		t.Fatalf("mid-run results fetch: want 409, got %d %s", code, body)
	}
	var conflict struct {
		Error  string    `json:"error"`
		Status JobStatus `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &conflict); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(conflict.Error, c.kind+" still running") || conflict.Status.ID != id {
		t.Fatalf("409 body: %s", body)
	}

	c.cancel(t, ts.URL, id)
	if st := c.wait(t, ts.URL, id, StateCanceled); st.Completed >= st.Total {
		t.Fatalf("%s finished despite DELETE: %+v", c.kind, st)
	}
}

// testShutdownCancels: graceful shutdown aborts running jobs, drains
// within the deadline, and refuses submissions afterwards.
func testShutdownCancels(t *testing.T, c jobKindCase) {
	sv := New(WithSession(ehinfer.NewSession(ehinfer.WithWorkers(1))))
	ts := httptest.NewServer(sv)
	defer ts.Close()
	id := postJSON(t, c.url(ts.URL), c.slow)["id"].(string)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	tbl := sv.tableFor(id)
	if tbl == nil || tbl.kind.name != c.kind {
		t.Fatalf("id %s does not name a %s", id, c.kind)
	}
	j := sv.lookup(tbl, id)
	if j == nil {
		t.Fatal("job vanished")
	}
	if _, state := j.final(); state != StateCanceled && state != StateDone {
		t.Fatalf("after shutdown %s is %q", c.kind, state)
	}

	resp, err := http.Post(c.url(ts.URL), "application/json", strings.NewReader(c.fast))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: want 503, got %d", resp.StatusCode)
	}
}

// testFinishedRestored: a finished job survives a restart — status done
// with the same counts, the final document byte-identical, and its
// NDJSON view the same set of compact item lines the live run streamed
// (the restored lines are rebuilt from the indented final document).
func testFinishedRestored(t *testing.T, c jobKindCase) {
	dir := t.TempDir()
	sv, ts := durableServer(t, dir, 2)
	id := postJSON(t, c.url(ts.URL), c.fast)["id"].(string)
	before := c.wait(t, ts.URL, id, StateDone)
	code, want := getBody(t, c.url(ts.URL, "/", id, "/results"))
	if code != http.StatusOK {
		t.Fatalf("results before restart: %d", code)
	}
	live, _ := c.ndjson(t, ts.URL, id)
	if len(live) != before.Total {
		t.Fatalf("live NDJSON has %d item lines, want %d", len(live), before.Total)
	}
	shutdownServer(t, sv, ts)

	sv2, ts2 := durableServer(t, dir, 2)
	defer shutdownServer(t, sv2, ts2)
	after := c.status(t, ts2.URL, id)
	if after.State != StateDone || after.Completed != before.Completed || after.Total != before.Total ||
		after.Name != before.Name || after.PointErrs != before.PointErrs {
		t.Fatalf("restored status %+v, before restart %+v", after, before)
	}
	code, got := getBody(t, c.url(ts2.URL, "/", id, "/results"))
	if code != http.StatusOK || got != want {
		t.Fatalf("final document changed across restart (%d):\nbefore: %.200s\nafter:  %.200s", code, want, got)
	}
	restored, summary := c.ndjson(t, ts2.URL, id)
	if summary["state"] != string(StateDone) || summary["completed"] != float64(before.Completed) {
		t.Fatalf("restored summary line: %v", summary)
	}
	slices.Sort(live)
	slices.Sort(restored)
	if !slices.Equal(live, restored) {
		t.Fatalf("restored NDJSON lines differ from the live run's:\nlive:     %.300q\nrestored: %.300q", live, restored)
	}
	// The id space is per kind: the job is unknown under the other kind.
	for _, other := range jobKindCases {
		if other.kind != c.kind {
			if code, _ := getBody(t, other.url(ts2.URL, "/", id)); code != http.StatusNotFound {
				t.Fatalf("%s %s answered %d on the %s routes", c.kind, id, code, other.kind)
			}
		}
	}
}

// testConcurrentFollowers: followers attached while the job runs, and a
// ?stream=1 submission of the same spec, all receive the same item lines
// — every streamed line is shared, never rebuilt per follower.
func testConcurrentFollowers(t *testing.T, c jobKindCase) {
	_, ts := newTestServer(t, 2)
	id := postJSON(t, c.url(ts.URL), c.fast)["id"].(string)
	const followers = 4
	got := make([][]string, followers)
	done := make(chan int, followers)
	for i := range followers {
		go func() {
			defer func() { done <- i }()
			resp, err := http.Get(c.url(ts.URL, "/", id, "/results?format=ndjson"))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				got[i] = append(got[i], sc.Text())
			}
		}()
	}
	for range followers {
		<-done
	}
	st := c.wait(t, ts.URL, id, StateDone)

	resp, err := http.Post(c.url(ts.URL, "?stream=1"), "application/json", strings.NewReader(c.fast))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var streamed []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		streamed = append(streamed, sc.Text())
	}
	if len(streamed) != st.Total+1 {
		t.Fatalf("?stream=1 sent %d lines, want %d items + summary", len(streamed), st.Total)
	}
	want := slices.Sorted(slices.Values(streamed[:st.Total]))
	for i, lines := range got {
		if len(lines) != st.Total+1 {
			t.Fatalf("follower %d read %d lines, want %d items + summary", i, len(lines), st.Total)
		}
		if items := slices.Sorted(slices.Values(lines[:st.Total])); !slices.Equal(items, want) {
			t.Fatalf("follower %d saw different item lines than the ?stream=1 run", i)
		}
	}
}

// TestJobRetentionPerKind: each kind keeps its own budget of finished
// jobs — pruning grids never evicts a fleet — and a running job is never
// pruned.
func TestJobRetentionPerKind(t *testing.T) {
	sv := New()
	defer func() { _ = sv.Shutdown(context.Background()) }()
	add := func(tbl *jobTable, state JobState) string {
		tbl.seq++
		j := newJob(fmt.Sprintf("%s%d", tbl.kind.prefix, tbl.seq), tbl.kind, nil, func() {})
		j.state = state
		sv.mu.Lock()
		sv.addLocked(tbl, j)
		sv.mu.Unlock()
		return j.id
	}
	fleetID := add(sv.fleets, StateDone)
	running := add(sv.grids, StateRunning)
	first := add(sv.grids, StateDone)
	for range maxRetainedJobs {
		add(sv.grids, StateDone)
	}
	if n := len(sv.grids.jobs); n != maxRetainedJobs {
		t.Fatalf("grid table holds %d jobs, want the budget %d", n, maxRetainedJobs)
	}
	if sv.lookup(sv.grids, running) == nil {
		t.Fatal("running grid was pruned")
	}
	if sv.lookup(sv.grids, first) != nil {
		t.Fatal("oldest finished grid survived past the budget")
	}
	if sv.lookup(sv.fleets, fleetID) == nil {
		t.Fatal("pruning grids evicted a fleet")
	}
}

// boundedSpec keeps the fuzzer to spec headers that resolve cheaply: it
// explores journal shapes, not resource limits (a fleet of a million
// devices or a day-long trace per variant is a valid but slow spec).
func boundedSpec(spec []byte) bool {
	if len(spec) > 1024 {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.UseNumber()
	for {
		tok, err := dec.Token()
		if err != nil {
			return true
		}
		if n, ok := tok.(json.Number); ok {
			if f, err := n.Float64(); err != nil || f > 1000 || f < -1000 {
				return false
			}
		}
	}
}

// compactSpec strips a test spec to the single line a journal header is.
func compactSpec(tb testing.TB, spec string) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(spec)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func mustMarshal(tb testing.TB, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// FuzzResumeJournal drives the one journal-recovery path — store
// recovery of a journal file, the id-prefix kind lookup, and the kind's
// resume validation — with arbitrary spec headers and journal lines. It
// must never panic, and any journal it accepts must satisfy the resume
// invariants: grid points in range with matching run seeds, fleet epochs
// strictly increasing below Epochs, and snapshots shaped like the spec.
func FuzzResumeJournal(f *testing.F) {
	sv := New()
	f.Cleanup(func() { _ = sv.Shutdown(context.Background()) })

	gridHeader := compactSpec(f, fastSpec)
	fleetHeader := compactSpec(f, fastFleetSpec)
	var gs exper.GridSpec
	if err := json.Unmarshal(gridHeader, &gs); err != nil {
		f.Fatal(err)
	}
	grid, err := gs.Grid()
	if err != nil {
		f.Fatal(err)
	}
	var fs fleet.Spec
	if err := json.Unmarshal(fleetHeader, &fs); err != nil {
		f.Fatal(err)
	}
	fl, err := fs.Fleet()
	if err != nil {
		f.Fatal(err)
	}
	point := func(i int) string { return mustMarshal(f, ehinfer.ExperimentResult{Point: grid.Points()[i]}) }
	snap := func(epoch int) string {
		s := fleet.Snapshot{Epoch: epoch, Devices: fl.Devices}
		for _, p := range fl.Pops {
			s.Populations = append(s.Populations, fleet.PopSnapshot{Name: p.Name, Devices: p.Count})
		}
		return mustMarshal(f, s)
	}
	join := func(lines ...string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }

	badSeed := ehinfer.ExperimentResult{Point: grid.Points()[1]}
	badSeed.Point.RunSeed++
	wrongDevices := fleet.Snapshot{Epoch: 0, Devices: fl.Devices + 1}
	for _, seed := range []struct {
		kind    string
		spec    []byte
		journal []byte
	}{
		{"grid", gridHeader, join(point(0), point(2), point(1))},
		{"grid", gridHeader, join(point(3), point(3))},                                   // duplicate
		{"grid", gridHeader, append(join(point(0)), point(1)[:20]...)},                   // torn tail
		{"grid", gridHeader, join(point(0), `{"point":{"index":99}}`)},                   // out of range
		{"grid", gridHeader, join(mustMarshal(f, badSeed))},                              // seed mismatch
		{"grid", gridHeader, join(`{"point":{"index":-1},"skipped":true}`)},              // skipped
		{"grid", gridHeader, join(`[1,2,3]`, `{`)},                                       // wrong shape
		{"grid", fleetHeader, join(point(0))},                                            // other kind's spec
		{"fleet", fleetHeader, join(snap(0), snap(1), snap(2))},                          // valid
		{"fleet", fleetHeader, join(snap(1), snap(0))},                                   // out of order
		{"fleet", fleetHeader, join(snap(1), snap(1))},                                   // repeated epoch
		{"fleet", fleetHeader, join(snap(0), snap(4))},                                   // past Epochs
		{"fleet", fleetHeader, append(join(snap(0)), snap(1)[:15]...)},                   // torn tail
		{"fleet", fleetHeader, join(mustMarshal(f, wrongDevices))},                       // wrong device count
		{"fleet", fleetHeader, join(strings.Replace(snap(0), "solar-q", "other", 1))},    // wrong population
		{"fleet", fleetHeader, join(`{"epoch":0,"devices":40,"populations":null}`, "x")}, // wrong shape
		{"fleet", gridHeader, join(snap(0))},                                             // other kind's spec
		{"fleet", []byte(`{"populations":[{"name":"p","count":3}],"epochs":2}`), nil},    // header only
		{"grid", []byte(`not json`), join(point(0))},                                     // torn header
		{"nope", gridHeader, join(point(0))},                                             // unknown kind
	} {
		f.Add(seed.kind, seed.spec, seed.journal)
	}

	f.Fuzz(func(t *testing.T, kind string, spec, journal []byte) {
		var tbl *jobTable
		for _, candidate := range sv.tables {
			if candidate.kind.name == kind {
				tbl = candidate
			}
		}
		if tbl == nil || !boundedSpec(spec) {
			return
		}
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id := tbl.kind.prefix + "1"
		file := append(append(append([]byte(nil), spec...), '\n'), journal...)
		if err := os.WriteFile(filepath.Join(st.Dir(), "jobs", id+".journal"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		unfinished, _, err := st.RecoverJobs()
		if err != nil || len(unfinished) != 1 {
			return // nothing to resume: no intact header
		}
		u := unfinished[0]
		if got := sv.tableFor(u.ID); got != tbl {
			t.Fatalf("id %s dispatched to the wrong kind", u.ID)
		}
		run, restored, err := tbl.kind.resume(sv, u.Spec, u.Lines)
		if err != nil {
			return
		}
		if len(run.restored) != restored {
			t.Fatalf("resume reported %d restored items but streams %d lines", restored, len(run.restored))
		}
		for _, line := range run.restored {
			if !json.Valid(line) || bytes.ContainsRune(line, '\n') {
				t.Fatalf("restored line is not one compact JSON value: %q", line)
			}
		}
		switch kind {
		case "grid":
			checkGridJournal(t, u, run, restored)
		case "fleet":
			checkFleetJournal(t, u, run)
		}
	})
}

// checkGridJournal re-derives the grid from the header and checks every
// accepted journal line against it.
func checkGridJournal(t *testing.T, u store.UnfinishedJob, run *jobRun, restored int) {
	var spec exper.GridSpec
	if err := json.Unmarshal(u.Spec, &spec); err != nil {
		t.Fatalf("accepted header does not decode: %v", err)
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatalf("accepted header does not resolve: %v", err)
	}
	points := grid.Points()
	if run.total != len(points) {
		t.Fatalf("run total %d, grid has %d points", run.total, len(points))
	}
	seen := map[int]bool{}
	for i, line := range u.Lines {
		var res ehinfer.ExperimentResult
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("accepted line %d does not decode: %v", i+1, err)
		}
		if res.Skipped {
			continue
		}
		idx := res.Point.Index
		if idx < 0 || idx >= len(points) || points[idx].RunSeed != res.Point.RunSeed {
			t.Fatalf("accepted line %d: point %d (run seed %d) is not in the grid", i+1, idx, res.Point.RunSeed)
		}
		seen[idx] = true
	}
	if restored != len(seen) {
		t.Fatalf("restored %d points, journal names %d distinct ones", restored, len(seen))
	}
}

// checkFleetJournal re-derives the fleet from the header and checks the
// accepted snapshots' order and shape against it.
func checkFleetJournal(t *testing.T, u store.UnfinishedJob, run *jobRun) {
	var spec fleet.Spec
	if err := json.Unmarshal(u.Spec, &spec); err != nil {
		t.Fatalf("accepted header does not decode: %v", err)
	}
	fl, err := spec.Fleet()
	if err != nil {
		t.Fatalf("accepted header does not resolve: %v", err)
	}
	if run.total != fl.SnapshotCount() {
		t.Fatalf("run total %d, fleet has %d snapshots", run.total, fl.SnapshotCount())
	}
	last := -1
	for i, line := range u.Lines {
		var snap fleet.Snapshot
		if err := json.Unmarshal(line, &snap); err != nil {
			t.Fatalf("accepted line %d does not decode: %v", i+1, err)
		}
		if snap.Epoch <= last || snap.Epoch >= fl.Epochs {
			t.Fatalf("accepted line %d: epoch %d after %d (fleet has %d)", i+1, snap.Epoch, last, fl.Epochs)
		}
		last = snap.Epoch
		if snap.Devices != fl.Devices || len(snap.Populations) != len(fl.Pops) {
			t.Fatalf("accepted line %d: snapshot shape does not match the spec", i+1)
		}
		for pi, ps := range snap.Populations {
			if ps.Name != fl.Pops[pi].Name {
				t.Fatalf("accepted line %d: population %d is %q, spec says %q", i+1, pi, ps.Name, fl.Pops[pi].Name)
			}
		}
	}
}
