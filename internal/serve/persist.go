package serve

import (
	"bytes"
	"context"

	ehinfer "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// recoverFromStore repopulates the server from its data directory at
// construction: verified artifacts come back under their original IDs,
// finished jobs serve their final documents again, and unfinished jobs
// resume from their journals — restored items filled in verbatim, only
// the remainder re-run. Called from New before the listener exists,
// so it may touch server maps without contention (it still takes sv.mu
// where the register/Shutdown protocol demands it).
func (sv *Server) recoverFromStore() {
	sv.recoverArtifacts()
	sv.recoverJobs()
}

// artifactOutcome counts one artifact recovery outcome on the
// ehserved_artifact_recovery_total family.
func (sv *Server) artifactOutcome(outcome string, n int) {
	if n > 0 {
		sv.reg.Counter(obs.Metric(mArtifactRecovery, "outcome", outcome)).Add(int64(n))
	}
}

func (sv *Server) recoverArtifacts() {
	rec := sv.store.Recovery()
	sv.artifactOutcome("quarantined", rec.Quarantined)
	sv.artifactOutcome("torn_manifest", rec.TornManifest)
	sv.artifactOutcome("orphaned", rec.Orphans)

	arts, err := sv.store.Artifacts()
	if err != nil {
		sv.log.Error("recovery: reading artifacts failed; serving none", "err", err)
		return
	}
	restored := 0
	for _, a := range arts {
		bundle, err := ehinfer.DecodeDeployed(bytes.NewReader(a.Data))
		if err != nil {
			// The store's verify hook already quarantines undecodable
			// files when cmd wires it; this is the belt for embedders who
			// opened the store without one.
			sv.artifactOutcome("undecodable", 1)
			sv.log.Error("recovery: artifact does not decode, not serving it", "id", a.ID, "err", err)
			continue
		}
		art := &storedArtifact{id: a.ID, name: a.Name, data: a.Data, bundle: bundle}
		if art.name == "" {
			art.name = bundle.Name
		}
		sv.artifacts[a.ID] = art
		sv.artOrder = append(sv.artOrder, a.ID)
		restored++
	}
	sv.artifactOutcome("restored", restored)
	if n := sv.store.MaxSeq("a"); n > sv.nextArtID {
		sv.nextArtID = n
	}
	if restored > 0 || rec.Quarantined > 0 {
		sv.log.Info("recovery: artifacts",
			"restored", restored, "quarantined", rec.Quarantined,
			"orphans", rec.Orphans, "tornManifest", rec.TornManifest)
	}
}

// recoverJobs restores every journaled job: finished ones serve their
// final documents again, unfinished ones resume where their journal
// stops. The id prefix picks the job kind; a journal the kind cannot
// resume is dropped.
func (sv *Server) recoverJobs() {
	unfinished, finished, err := sv.store.RecoverJobs()
	if err != nil {
		sv.log.Error("recovery: scanning jobs failed; resuming none", "err", err)
		return
	}
	for _, f := range finished {
		t := sv.tableFor(f.ID)
		if t == nil {
			sv.log.Error("recovery: id names no job kind, ignoring it", "job", f.ID)
			continue
		}
		t.noteID(f.ID)
		j, err := finishedJob(f.ID, t.kind, f.Final)
		if err != nil {
			sv.log.Error("recovery: final document unreadable, dropping job", "job", f.ID, "err", err)
			_ = sv.store.RemoveJob(f.ID)
			continue
		}
		sv.mu.Lock()
		sv.addLocked(t, j)
		sv.mu.Unlock()
	}

	resumed := 0
	for _, u := range unfinished {
		t := sv.tableFor(u.ID)
		if t == nil {
			sv.log.Error("recovery: id names no job kind, ignoring it", "job", u.ID)
			continue
		}
		t.noteID(u.ID)
		restored, err := sv.resumeJob(t, u)
		if err != nil {
			sv.log.Error("recovery: cannot resume job, dropping its journal", "job", u.ID, "err", err)
			_ = sv.store.RemoveJob(u.ID)
			continue
		}
		resumed++
		t.kind.countResumed(sv.reg, restored)
	}
	if len(finished) > 0 || resumed > 0 {
		sv.log.Info("recovery: jobs", "finished", len(finished), "resumed", resumed)
	}
}

// resumeJob relaunches one journaled run: its kind validates the journal
// against the spec header, and the job goes back into the server's
// tables exactly as a fresh submission would — with its journal
// reattached so further items keep checkpointing. Returns the number of
// restored items.
func (sv *Server) resumeJob(t *jobTable, u store.UnfinishedJob) (int, error) {
	run, restored, err := t.kind.resume(sv, u.Spec, u.Lines)
	if err != nil {
		return 0, err
	}
	journal, err := sv.store.OpenJobJournal(u.ID)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(sv.baseCtx)
	j := newJob(u.ID, t.kind, run, cancel)
	j.journal = journal
	sv.mu.Lock()
	sv.addLocked(t, j)
	sv.wg.Add(1)
	sv.mu.Unlock()
	sv.start(ctx, cancel, j)
	return restored, nil
}
