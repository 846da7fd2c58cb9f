package serve

import (
	"context"
	"encoding/json"
	"fmt"

	ehinfer "repro"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// gridKind is the scenario-grid job: a GridSpec runs on the experiment
// engine and streams one line per completed point.
var gridKind = &jobKind{
	name: "grid", prefix: "g", pointStats: true,
	submit: func(sv *Server, dec *json.Decoder) (*jobRun, []byte, error) {
		var spec exper.GridSpec
		if err := dec.Decode(&spec); err != nil {
			return nil, nil, fmt.Errorf("bad grid spec: %w", err)
		}
		grid, err := spec.GridResolved(sv.artifactPolicy)
		if err != nil {
			return nil, nil, err
		}
		return gridRun(grid, nil, nil), specLine(&spec), nil
	},
	resume:   resumeGrid,
	finished: finishedGrid,
	countResumed: func(reg *obs.Registry, restored int) {
		reg.Counter(mJobsResumed).Inc()
		reg.Counter(mJobPointsRestored).Add(int64(restored))
	},
}

// fleetKind is the fleet-simulation job: a fleet.Spec runs on the fleet
// engine and streams one line per epoch snapshot.
var fleetKind = &jobKind{
	name: "fleet", prefix: "f",
	submit: func(sv *Server, dec *json.Decoder) (*jobRun, []byte, error) {
		var spec fleet.Spec
		if err := dec.Decode(&spec); err != nil {
			return nil, nil, fmt.Errorf("bad fleet spec: %w", err)
		}
		f, err := spec.Resolve(sv.artifactPolicy)
		if err != nil {
			return nil, nil, err
		}
		return fleetRun(f, 0, nil), specLine(&spec), nil
	},
	resume:   resumeFleet,
	finished: finishedFleet,
	countResumed: func(reg *obs.Registry, restored int) {
		reg.Counter(mFleetsResumed).Inc()
		reg.Counter(mFleetSnapshotsRestored).Add(int64(restored))
	},
}

// specLine is the journal header for a decoded spec; nil (run without a
// journal) if it does not marshal.
func specLine(spec any) []byte {
	line, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	return line
}

// marshalLines renders items as compact JSON lines — the form a live run
// streams, whatever shape (journal line, indented final document) they
// were decoded from.
func marshalLines[T any](items []T) ([][]byte, error) {
	lines := make([][]byte, len(items))
	for i := range items {
		line, err := json.Marshal(&items[i])
		if err != nil {
			return nil, err
		}
		lines[i] = line
	}
	return lines, nil
}

// gridRun runs a grid, resuming past the points in completed (nil for a
// fresh run) after streaming the restored lines.
func gridRun(grid *ehinfer.ExperimentGrid, completed map[int]ehinfer.ExperimentResult, restored [][]byte) *jobRun {
	return &jobRun{
		name: grid.Name, total: grid.Size(), restored: restored,
		accepted: map[string]any{"points": grid.Size()},
		exec: func(ctx context.Context, session *ehinfer.Session, emit func(any, bool)) (jobEnd, error) {
			gr := session.ResumeGrid(ctx, grid, completed)
			for res := range gr.Results() {
				// Only results the determinism contract can reproduce are
				// journaled: skipped points, and error results produced
				// while the run's context was already dead (a point torn
				// mid-flight by shutdown reports "context canceled" — not
				// the point's own outcome), must re-run on resume, or the
				// resumed final document diverges from an uninterrupted
				// run's.
				emit(res, !res.Skipped && (res.Err == "" || ctx.Err() == nil))
			}
			final, err := gr.Wait()
			var end jobEnd
			if final != nil {
				end.workers, end.pointErrs = final.Workers, len(final.Errs())
				if err == nil {
					end.final, err = final.JSON()
				}
			}
			return end, err
		},
	}
}

// resumeGrid rebuilds a grid run from its journal: the spec header
// resolves back to a grid (against the already-restored artifacts) and
// the journaled point results become the engine's completed set. It
// returns the number of restored points.
func resumeGrid(sv *Server, header []byte, lines [][]byte) (*jobRun, int, error) {
	var spec exper.GridSpec
	if err := json.Unmarshal(header, &spec); err != nil {
		return nil, 0, fmt.Errorf("spec header: %w", err)
	}
	grid, err := spec.GridResolved(sv.artifactPolicy)
	if err != nil {
		return nil, 0, fmt.Errorf("resolve grid: %w", err)
	}
	points := grid.Points()
	completed := make(map[int]ehinfer.ExperimentResult, len(lines))
	var restored []ehinfer.ExperimentResult
	for i, line := range lines {
		var res ehinfer.ExperimentResult
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, 0, fmt.Errorf("journal line %d: %w", i+1, err)
		}
		if res.Skipped {
			// Journals never record skipped points, but an old or
			// hand-edited journal must not pin a never-ran point as
			// completed.
			continue
		}
		idx := res.Point.Index
		if idx < 0 || idx >= len(points) {
			return nil, 0, fmt.Errorf("journal line %d: point index %d outside grid of %d", i+1, idx, len(points))
		}
		if points[idx].RunSeed != res.Point.RunSeed {
			// The spec on disk no longer derives the journaled point (e.g.
			// a registry changed under it): replaying would silently mix
			// two different experiments.
			return nil, 0, fmt.Errorf("journal line %d: point %d run seed %d does not match grid's %d",
				i+1, idx, res.Point.RunSeed, points[idx].RunSeed)
		}
		if _, dup := completed[idx]; !dup {
			restored = append(restored, res)
		}
		completed[idx] = res
	}
	out, err := marshalLines(restored)
	if err != nil {
		return nil, 0, err
	}
	return gridRun(grid, completed, out), len(completed), nil
}

// finishedGrid reads a final GridResult document back into the job's
// streamed lines (enumeration order) and its point error count.
func finishedGrid(final []byte) (string, [][]byte, int, error) {
	var doc struct {
		Grid struct {
			Name string `json:"name"`
		} `json:"grid"`
		Results []ehinfer.ExperimentResult `json:"results"`
	}
	if err := json.Unmarshal(final, &doc); err != nil {
		return "", nil, 0, err
	}
	pointErrs := 0
	for _, r := range doc.Results {
		if r.Err != "" && !r.Skipped {
			pointErrs++
		}
	}
	lines, err := marshalLines(doc.Results)
	return doc.Grid.Name, lines, pointErrs, err
}

// fleetRun runs a fleet from startEpoch (0 for a fresh run) after
// streaming the restored lines. The engine fast-forwards
// deterministically through the skipped epochs, so a resumed run's final
// document is byte-identical to an uninterrupted run's.
func fleetRun(f *fleet.Fleet, startEpoch int, restored [][]byte) *jobRun {
	var snapshots, events, brownouts *obs.Counter
	return &jobRun{
		name: f.Name, total: f.SnapshotCount(), restored: restored,
		accepted: map[string]any{"devices": f.Devices, "epochs": f.Epochs, "snapshots": f.SnapshotCount()},
		summary:  map[string]any{"devices": f.Devices},
		// Per-fleet series are labeled by job id; ids are stable across
		// restarts, so a resumed fleet continues its series.
		bind: func(reg *obs.Registry, id string) {
			snapshots = reg.Counter(obs.Metric(mFleetSnapshots, "fleet", id))
			events = reg.Counter(obs.Metric(mFleetEvents, "fleet", id))
			brownouts = reg.Counter(obs.Metric(mFleetBrownouts, "fleet", id))
			reg.Gauge(obs.Metric(mFleetDevices, "fleet", id)).Set(float64(f.Devices))
		},
		exec: func(ctx context.Context, session *ehinfer.Session, emit func(any, bool)) (jobEnd, error) {
			fr := session.ResumeFleet(ctx, f, startEpoch)
			for snap := range fr.Snapshots() {
				// Snapshots are emitted only at completed epoch barriers,
				// so every one is a state the engine can fast-forward to.
				emit(snap, true)
				var ev, missed int64
				for _, ps := range snap.Populations {
					ev += ps.Events
					missed += ps.Missed
				}
				snapshots.Inc()
				events.Add(ev)
				brownouts.Add(missed)
			}
			res, err := fr.Wait()
			var end jobEnd
			if err == nil && res != nil {
				end.final, err = res.JSON()
			}
			return end, err
		},
	}
}

// resumeFleet rebuilds a fleet run from its journal: the spec header
// resolves back to a fleet and the journaled snapshots, validated against
// the spec's shape and epoch order, stream first while the engine
// resumes at the epoch after the last one. It returns the number of
// restored snapshots.
func resumeFleet(sv *Server, header []byte, lines [][]byte) (*jobRun, int, error) {
	var spec fleet.Spec
	if err := json.Unmarshal(header, &spec); err != nil {
		return nil, 0, fmt.Errorf("spec header: %w", err)
	}
	f, err := spec.Resolve(sv.artifactPolicy)
	if err != nil {
		return nil, 0, fmt.Errorf("resolve fleet: %w", err)
	}
	restored := make([]fleet.Snapshot, 0, len(lines))
	last := -1
	for i, line := range lines {
		var snap fleet.Snapshot
		if err := json.Unmarshal(line, &snap); err != nil {
			return nil, 0, fmt.Errorf("journal line %d: %w", i+1, err)
		}
		// The journal must describe the same fleet the spec resolves to
		// now; a registry change under the spec would otherwise splice two
		// different simulations together.
		if snap.Devices != f.Devices || len(snap.Populations) != len(f.Pops) {
			return nil, 0, fmt.Errorf("journal line %d: snapshot shape does not match the spec", i+1)
		}
		for pi, ps := range snap.Populations {
			if ps.Name != f.Pops[pi].Name {
				return nil, 0, fmt.Errorf("journal line %d: population %d is %q, spec says %q",
					i+1, pi, ps.Name, f.Pops[pi].Name)
			}
		}
		if snap.Epoch <= last || snap.Epoch >= f.Epochs {
			return nil, 0, fmt.Errorf("journal line %d: epoch %d out of order (previous %d, fleet has %d)",
				i+1, snap.Epoch, last, f.Epochs)
		}
		last = snap.Epoch
		restored = append(restored, snap)
	}
	out, err := marshalLines(restored)
	if err != nil {
		return nil, 0, err
	}
	return fleetRun(f, last+1, out), len(restored), nil
}

// finishedFleet reads a final fleet Result document back into the job's
// streamed snapshot lines.
func finishedFleet(final []byte) (string, [][]byte, int, error) {
	var doc struct {
		Name      string           `json:"name"`
		Snapshots []fleet.Snapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(final, &doc); err != nil {
		return "", nil, 0, err
	}
	lines, err := marshalLines(doc.Snapshots)
	return doc.Name, lines, 0, err
}
