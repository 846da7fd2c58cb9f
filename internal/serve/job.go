// Package serve is the serving surface of the system: an HTTP/JSON API
// that runs asynchronous simulation jobs — declarative scenario grids
// (exper.GridSpec, /v1/grids) and device fleets (fleet.Spec,
// /v1/fleets) — on a shared ehinfer.Session, stores deployment
// artifacts, and answers micro-batched online inference (/v1/infer). It
// is the layer cmd/ehserved wraps in a daemon.
//
// Both job kinds run on one job machinery: a job streams one JSON line
// per completed item (a grid point, a fleet epoch snapshot) to NDJSON
// followers, exposes status and cancellation, and ends in a
// deterministic final document. Each kind is a small descriptor
// (jobKind) holding only what differs: its route and id prefix, how a
// spec decodes and resolves, how a journal resumes, and how a finished
// job is rebuilt from its final document.
//
// The server is crash-safe when built with WithStore: artifacts live in
// a durable atomic-write store and every job checkpoints each streamed
// line to a journal before acknowledging it, so a process killed mid-job
// resumes it on the next boot and produces a final result document
// byte-identical to an uninterrupted run's. WithRequestTimeout,
// WithLoadShed, and WithBreaker add per-request deadlines, overload
// shedding, and a per-model circuit breaker; WithChaos threads a
// deterministic fault injector through the request path for drills.
// Backoff is the matching retry client for the 429/503 + Retry-After
// responses those gates emit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ehinfer "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// jobKind is everything that differs between job kinds; the registry,
// retention, journal, streaming, and recovery around it are shared.
type jobKind struct {
	name   string // "grid" or "fleet": routes /v1/<name>s, listing key, /v1/jobs kind
	prefix string // id prefix, "g" or "f"

	// pointStats marks kinds whose status and summary lines carry the
	// run's workers and pointErrs.
	pointStats bool

	// submit decodes (strictly) and resolves a submitted spec, returning
	// the run and the spec line that heads its journal.
	submit func(sv *Server, dec *json.Decoder) (*jobRun, []byte, error)
	// resume rebuilds a run from a journal's spec header and item lines,
	// validating every line against the spec; it returns the run and the
	// number of restored items.
	resume func(sv *Server, spec []byte, lines [][]byte) (*jobRun, int, error)
	// finished rebuilds a finished job's name, streamed lines, and point
	// error count from its final document.
	finished func(final []byte) (name string, lines [][]byte, pointErrs int, err error)
	// countResumed counts one job resumed at boot and the items it restored
	// instead of re-running.
	countResumed func(reg *obs.Registry, restored int)
}

// jobRun is one resolved, runnable job as its kind hands it over.
type jobRun struct {
	name     string
	total    int
	restored [][]byte       // journaled lines streamed before the run resumes
	accepted map[string]any // kind fields of the 202 submit response
	summary  map[string]any // kind fields of the ?stream=1 summary line

	// bind attaches per-job metric instruments at registration; nil when
	// the kind has none.
	bind func(reg *obs.Registry, id string)
	// exec runs the job to completion, calling emit for each streamed
	// item in order. durable reports whether the determinism contract can
	// reproduce the item, so it may be journaled; other items re-run on
	// resume.
	exec func(ctx context.Context, session *ehinfer.Session, emit func(item any, durable bool)) (jobEnd, error)
}

// jobEnd is what a finished run reports besides its error.
type jobEnd struct {
	final              []byte // deterministic final document; nil unless done
	workers, pointErrs int
}

// job is one submitted run of any kind. The run goroutine appends each
// streamed item, marshaled once, under mu and broadcasts on cond; the
// same bytes go to the journal, to ?stream=1 responses, and to
// ?format=ndjson followers, which tail the lines slice.
//
// With a data directory configured, the job checkpoints every durable
// line to its store journal before acknowledging it to streamers, and
// retires the journal when the run ends: Finalize (durable final
// document) on success, Abort on explicit cancel or failure, plain Close
// on a shutdown mid-run — the journal stays, and the next boot resumes
// the job with the checkpointed lines restored verbatim.
type job struct {
	id     string
	kind   *jobKind
	name   string
	total  int
	run    *jobRun // nil for jobs restored already finished
	cancel context.CancelFunc
	log    *slog.Logger

	// journal is nil for an in-memory-only job; it is touched only by the
	// run goroutine after construction.
	journal *store.JobJournal
	aborted atomic.Bool // set by DELETE so retire aborts, not keeps

	mu        sync.Mutex
	cond      *sync.Cond
	state     JobState
	lines     [][]byte // marshaled items, emit order, no trailing newline
	finalJSON []byte   // deterministic final document, once finished
	workers   int
	pointErrs int
	errMsg    string
	started   time.Time
	elapsed   time.Duration
}

func newJob(id string, kind *jobKind, run *jobRun, cancel context.CancelFunc) *job {
	j := &job{
		id:      id,
		kind:    kind,
		run:     run,
		cancel:  cancel,
		log:     slog.New(slog.DiscardHandler),
		state:   StateRunning,
		started: time.Now(),
	}
	if run != nil {
		j.name, j.total = run.name, run.total
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// finishedJob rebuilds a done job from its final document so status,
// NDJSON following, and the byte-identical final JSON all serve again;
// only Workers/Elapsed telemetry is gone (it was never serialized, by
// the determinism contract).
func finishedJob(id string, kind *jobKind, final []byte) (*job, error) {
	name, lines, pointErrs, err := kind.finished(final)
	if err != nil {
		return nil, err
	}
	j := newJob(id, kind, nil, func() {})
	j.name, j.total, j.lines = name, len(lines), lines
	j.state, j.finalJSON, j.pointErrs = StateDone, final, pointErrs
	return j, nil
}

// execute drives the run to completion on the session, feeding the
// streaming side as items complete. It blocks until the run ends.
func (j *job) execute(ctx context.Context, session *ehinfer.Session) {
	// Journaled lines stream first, in their original order, so a
	// follower attached across the restart sees the same sequence an
	// uninterrupted run would have produced.
	j.publish(j.run.restored...)
	end, err := j.run.exec(ctx, session, func(item any, durable bool) {
		line, merr := json.Marshal(item)
		if merr != nil {
			j.log.Error("job item does not marshal; not streamed", "job", j.id, "err", merr)
			return
		}
		if durable {
			// Durability before acknowledgment: the line lands in the
			// journal before any streamer (or a post-crash resume) sees it.
			j.checkpoint(line)
		}
		j.publish(line)
	})

	j.mu.Lock()
	j.finalJSON = end.final
	j.workers, j.pointErrs = end.workers, end.pointErrs
	j.elapsed = time.Since(j.started)
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Classify by the run's own error, not ctx.Err(): a run that
		// failed for a real reason in the same instant the context died
		// must surface the failure, not masquerade as canceled.
		j.state = StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state := j.state
	j.cond.Broadcast()
	j.mu.Unlock()

	j.retireJournal(state, end.final)
}

// publish appends streamed lines and wakes followers.
func (j *job) publish(lines ...[]byte) {
	if len(lines) == 0 {
		return
	}
	j.mu.Lock()
	j.lines = append(j.lines, lines...)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// checkpoint journals one line. A failing journal (disk fault) degrades
// the job to in-memory-only: the run continues, the failure is logged,
// and the stale journal is abandoned — at worst the next boot re-runs
// items that had completed, which the determinism contract makes
// harmless.
func (j *job) checkpoint(line []byte) {
	if j.journal == nil {
		return
	}
	if err := j.journal.Append(line); err != nil {
		j.log.Error("job checkpoint failed; continuing without durability", "job", j.id, "err", err)
		_ = j.journal.Close()
		j.journal = nil
	}
}

// retireJournal resolves the journal against the run's outcome. Called
// once, from the run goroutine, after the terminal state is visible.
func (j *job) retireJournal(state JobState, final []byte) {
	if j.journal == nil {
		return
	}
	var err error
	switch {
	case state == StateDone && final != nil:
		err = j.journal.Finalize(final)
	case j.aborted.Load() || state == StateFailed:
		// Explicit cancel or a real failure: resuming at next boot would
		// re-run something the operator killed or a spec that fails.
		err = j.journal.Abort()
	default:
		// Canceled by shutdown: keep the journal so the next boot resumes.
		err = j.journal.Close()
	}
	if err != nil {
		j.log.Error("retiring job journal failed", "job", j.id, "state", string(state), "err", err)
	}
	j.journal = nil
}

// snapshot returns the job's status under lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Name:      j.name,
		State:     j.state,
		Completed: len(j.lines),
		Total:     j.total,
		Err:       j.errMsg,
	}
	if j.state == StateRunning {
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	} else {
		st.ElapsedMS = j.elapsed.Milliseconds()
		st.Workers, st.PointErrs = j.workers, j.pointErrs
	}
	return st
}

// next blocks until the job has more than n streamed lines, the run
// leaves StateRunning, or ctx is canceled. It returns the new lines
// beyond n and the job's current state.
func (j *job) next(ctx context.Context, n int) ([][]byte, JobState) {
	// cond.Wait cannot watch a context, so a canceled ctx wakes all
	// waiters and each re-checks its own exit condition.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.lines) <= n && j.state == StateRunning && ctx.Err() == nil {
		j.cond.Wait()
	}
	return j.lines[n:len(j.lines):len(j.lines)], j.state
}

// final returns the finished run's deterministic document (nil if the
// job has none: still running, or canceled/failed before one was
// produced) and the job's state.
func (j *job) final() ([]byte, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finalJSON, j.state
}

// tail writes the job's lines to w from the first, following the run
// live. It reports true once the run has left StateRunning and every
// line is written, false when ctx ends or the client is gone.
func (j *job) tail(ctx context.Context, w http.ResponseWriter) bool {
	sent := 0
	for {
		batch, state := j.next(ctx, sent)
		for _, line := range batch {
			if _, err := w.Write(line); err != nil {
				return false
			}
			if _, err := w.Write(newline); err != nil {
				return false
			}
			sent++
		}
		flush(w)
		if state != StateRunning {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
	}
}

var newline = []byte{'\n'}

// summaryLine is the NDJSON line that ends a finished job's stream,
// extended with the run's kind-specific fields.
func (j *job) summaryLine(extra map[string]any) map[string]any {
	st := j.snapshot()
	line := map[string]any{
		"done": true, "state": st.State, "completed": st.Completed, "total": st.Total,
	}
	if j.kind.pointStats {
		line["pointErrs"], line["workers"] = st.PointErrs, st.Workers
	}
	maps.Copy(line, extra)
	return line
}

// JobStatus is the wire form of a job's state (GET /v1/grids/{id},
// GET /v1/fleets/{id}).
type JobStatus struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	State     JobState `json:"state"`
	Completed int      `json:"completed"`
	Total     int      `json:"total"`
	// Workers is the resolved pool size of a grid, known once the run
	// finished.
	Workers int `json:"workers,omitempty"`
	// PointErrs counts failed points in a finished grid.
	PointErrs int    `json:"pointErrs,omitempty"`
	ElapsedMS int64  `json:"elapsedMs"`
	Err       string `json:"err,omitempty"`
}

// maxRetainedJobs bounds how many finished jobs of each kind the server
// keeps for status/results queries; past it the oldest finished jobs are
// dropped so a long-lived daemon does not accumulate result sets
// forever. Each kind has its own budget, so a burst of grids cannot
// evict fleet results or vice versa.
const maxRetainedJobs = 128

// jobTable is one kind's registry on a server: its jobs, their
// submission order, and the id counter. Guarded by Server.mu.
type jobTable struct {
	kind  *jobKind
	jobs  map[string]*job
	order []string
	seq   int
}

func newJobTable(kind *jobKind) *jobTable {
	return &jobTable{kind: kind, jobs: make(map[string]*job)}
}

// jobCount reports how many jobs the table retains, for its gauge.
func (sv *Server) jobCount(t *jobTable) func() float64 {
	return func() float64 {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		return float64(len(t.jobs))
	}
}

// noteID advances the id counter past a recovered id of this kind, so
// a restarted server never reissues one.
func (t *jobTable) noteID(id string) {
	if n, ok := t.seqOf(id); ok && n > t.seq {
		t.seq = n
	}
}

// seqOf parses an id of this kind ("g7" → 7 for grids).
func (t *jobTable) seqOf(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, t.kind.prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil && n >= 0
}

// tableFor returns the registry whose kind owns id, or nil.
func (sv *Server) tableFor(id string) *jobTable {
	for _, t := range sv.tables {
		if _, ok := t.seqOf(id); ok {
			return t
		}
	}
	return nil
}

// addLocked enters a job into its table, binds its metrics, and prunes
// the table to its retention budget. Caller holds sv.mu.
func (sv *Server) addLocked(t *jobTable, j *job) {
	j.log = sv.log
	if j.run != nil && j.run.bind != nil {
		j.run.bind(sv.reg, j.id)
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	sv.pruneLocked(t)
}

// register admits a new job under the server lock; it fails once the
// server is shutting down. On success the server's WaitGroup has been
// incremented for the job — the caller MUST run the job in a goroutine
// that calls sv.wg.Done. (The Add must happen under the same lock that
// Shutdown uses to flip closed, or a racing Shutdown could observe a
// zero WaitGroup and "drain" before the job even starts.)
func (sv *Server) register(t *jobTable, run *jobRun, cancel context.CancelFunc) (*job, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, fmt.Errorf("serve: server is shutting down")
	}
	t.seq++
	j := newJob(t.kind.prefix+strconv.Itoa(t.seq), t.kind, run, cancel)
	sv.addLocked(t, j)
	sv.wg.Add(1)
	return j, nil
}

// pruneLocked drops the table's oldest finished jobs beyond
// maxRetainedJobs. Running jobs are never dropped. Caller holds sv.mu.
func (sv *Server) pruneLocked(t *jobTable) {
	if len(t.order) <= maxRetainedJobs {
		return
	}
	kept := t.order[:0]
	excess := len(t.order) - maxRetainedJobs
	for _, id := range t.order {
		j := t.jobs[id]
		if excess > 0 && j != nil {
			if _, state := j.final(); state != StateRunning {
				delete(t.jobs, id)
				excess--
				if sv.store != nil {
					// Retire the on-disk final document with the in-memory
					// entry, so the data directory stays bounded too.
					if err := sv.store.RemoveJob(id); err != nil {
						sv.log.Error("pruning job's on-disk state failed", "job", id, "err", err)
					}
				}
				continue
			}
		}
		kept = append(kept, id)
	}
	t.order = kept
}

func (sv *Server) lookup(t *jobTable, id string) *job {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return t.jobs[id]
}

// listed returns the table's jobs in submission order.
func (sv *Server) listed(t *jobTable) []*job {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]*job, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id])
	}
	return out
}

// start runs a registered job in its own goroutine, releasing the
// WaitGroup slot register took when it ends.
func (sv *Server) start(ctx context.Context, cancel context.CancelFunc, j *job) {
	go func() {
		defer sv.wg.Done()
		defer cancel()
		j.execute(ctx, sv.session)
	}()
}

// jobRoutes is one kind's route set: submit, list, status, results, and
// cancel under /v1/<name>s.
func (sv *Server) jobRoutes(t *jobTable) []route {
	base := "/v1/" + t.kind.name + "s"
	withJob := func(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			j := sv.lookup(t, r.PathValue("id"))
			if j == nil {
				writeErr(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", t.kind.name, r.PathValue("id")))
				return
			}
			h(w, r, j)
		}
	}
	return []route{
		{"POST", base, func(w http.ResponseWriter, r *http.Request) { sv.handleSubmit(w, r, t) }},
		{"GET", base, func(w http.ResponseWriter, _ *http.Request) {
			jobs := sv.listed(t)
			out := make([]JobStatus, 0, len(jobs))
			for _, j := range jobs {
				out = append(out, j.snapshot())
			}
			writeJSON(w, http.StatusOK, map[string]any{t.kind.name + "s": out})
		}},
		{"GET", base + "/{id}", withJob(func(w http.ResponseWriter, _ *http.Request, j *job) {
			writeJSON(w, http.StatusOK, j.snapshot())
		})},
		{"GET", base + "/{id}/results", withJob(sv.handleResults)},
		{"DELETE", base + "/{id}", withJob(func(w http.ResponseWriter, _ *http.Request, j *job) {
			// An explicit cancel aborts the journal too: the operator
			// killed the run on purpose, so the next boot must not
			// resurrect it.
			j.aborted.Store(true)
			j.cancel()
			writeJSON(w, http.StatusAccepted, j.snapshot())
		})},
	}
}

// handleSubmit parses a spec of the table's kind and either launches it
// asynchronously (202 + poll URLs) or, with ?stream=1, runs it bound to
// the request context and streams NDJSON lines — cancel the request and
// the run stops at its next item boundary.
func (sv *Server) handleSubmit(w http.ResponseWriter, r *http.Request, t *jobTable) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	// "artifact:<id>" policy names resolve against this server's uploaded
	// artifacts before the process-wide registries.
	run, header, err := t.kind.submit(sv, dec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	if r.URL.Query().Get("stream") != "" {
		sv.runStreaming(w, r, t, run)
		return
	}

	ctx, cancel := context.WithCancel(sv.baseCtx)
	j, err := sv.register(t, run, cancel) // on success, wg is incremented for the job
	if err != nil {
		cancel()
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if sv.store != nil && header != nil {
		// Journal the job before any item runs: the spec header alone is
		// enough for a crashed boot to restart the run from zero. A
		// failing journal degrades this job to in-memory-only.
		if journal, jerr := sv.store.NewJobJournal(j.id, header); jerr == nil {
			j.journal = journal
		} else {
			sv.log.Error("job journal creation failed; running without durability", "job", j.id, "err", jerr)
		}
	}
	sv.start(ctx, cancel, j)

	loc := "/v1/" + t.kind.name + "s/" + j.id
	w.Header().Set("Location", loc)
	resp := map[string]any{"id": j.id, "name": run.name, "status": loc, "results": loc + "/results"}
	maps.Copy(resp, run.accepted)
	writeJSON(w, http.StatusAccepted, resp)
}

// runStreaming executes the run synchronously on the request: one NDJSON
// line per streamed item, then a final summary line. The run inherits
// the request context, so client disconnects abort it promptly.
func (sv *Server) runStreaming(w http.ResponseWriter, r *http.Request, t *jobTable, run *jobRun) {
	ctx, cancel := mergeCancel(r.Context(), sv.baseCtx)
	defer cancel()
	j, err := sv.register(t, run, cancel) // on success, wg is incremented for the job
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush(w)

	runDone := make(chan struct{})
	go func() {
		defer sv.wg.Done()
		defer close(runDone)
		j.execute(ctx, sv.session)
	}()

	ok := j.tail(ctx, w)
	cancel() // a no-op after a finished run; aborts it if the client is gone
	<-runDone
	if ok {
		_ = json.NewEncoder(w).Encode(j.summaryLine(run.summary))
	}
}

// handleResults serves a finished job's deterministic final document.
// With ?format=ndjson it instead follows the run live, one item per
// line, ending with a summary line — usable both mid-run and after
// completion. Disconnecting a follower never cancels the job itself.
func (sv *Server) handleResults(w http.ResponseWriter, r *http.Request, j *job) {
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flush(w)
		if j.tail(r.Context(), w) {
			_ = json.NewEncoder(w).Encode(j.summaryLine(nil))
		}
		return
	}
	data, state := j.final()
	if data == nil {
		if state == StateRunning {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  j.kind.name + " still running; poll status or use ?format=ndjson to stream",
				"status": j.snapshot(),
			})
			return
		}
		writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("%s %s finished without results: %s", j.kind.name, j.id, j.snapshot().Err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// jobEntry is one row of the unified GET /v1/jobs listing.
type jobEntry struct {
	Kind string `json:"kind"`
	JobStatus
}

// handleJobs lists every async job the server knows, kind by kind, in
// submission order within each kind.
func (sv *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	out := []jobEntry{}
	for _, t := range sv.tables {
		for _, j := range sv.listed(t) {
			out = append(out, jobEntry{Kind: t.kind.name, JobStatus: j.snapshot()})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}
