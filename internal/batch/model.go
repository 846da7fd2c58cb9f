// Package batch is the online-inference execution layer behind the
// ehserved /v1/infer endpoint and the public Session.Infer API: it wraps
// a deployed model in a validated, backend-resolved executor (Model) and
// schedules concurrent requests onto it through a micro-batching queue
// (Queue) with bounded backpressure.
//
// The split mirrors the rest of the system: Model is pure execution —
// deterministic, synchronous, one micro-batch at a time — while Queue
// owns the concurrency policy (work-conserving dispatch, batch bound,
// overflow, drain). The serving layer composes one Queue per uploaded
// artifact or registered deployment.
package batch

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Options tune one inference request beyond its input.
type Options struct {
	// Exit bounds how deep the trunk runs: the prediction is taken at
	// this exit unless Threshold stops earlier. Negative (the default)
	// means the deepest exit.
	Exit int
	// Threshold, when > 0, enables anytime early exit: the prediction is
	// taken at the first exit whose normalized-entropy confidence
	// reaches it (falling back to the Exit bound when none does). The
	// trunk still runs to the Exit bound — on a batched server the
	// schedule is per micro-batch, not per image — so the threshold
	// selects which computed exit answers, exactly like the paper's
	// incremental-inference confidence test.
	Threshold float64
}

// Req is one validated inference request: a CHW image flattened to the
// model's input volume, plus options.
type Req struct {
	Input []float32
	Options
}

// Prediction is the answer to one request.
type Prediction struct {
	// Class is the predicted class at the exit taken.
	Class int `json:"class"`
	// Exit is the exit the prediction was taken at.
	Exit int `json:"exit"`
	// Confidence is the normalized-entropy confidence at that exit.
	Confidence float64 `json:"confidence"`
	// ExitClasses/ExitConfidences hold every computed exit's argmax and
	// confidence, in exit order up to the request's Exit bound — the
	// anytime-inference profile of the input.
	ExitClasses     []int     `json:"exitClasses"`
	ExitConfidences []float64 `json:"exitConfidences"`
	// Backend names the inference backend that produced the answer.
	Backend string `json:"backend"`
}

// Model is a deployed network bound to a serving backend: a compiled
// batched plan (float32 by default, or the packed-weight int8-fast
// pipeline), per-image executors for the bit-exact int8 reference, or
// the legacy layer walk for architectures the plan compiler rejects. All
// methods are safe for concurrent use; execution state is pooled (plan
// backends) or serialized (the layer walk mutates network internals).
type Model struct {
	d        *core.Deployed
	backend  core.InferBackend
	geom     plan.Geometry
	maxBatch int

	bplan *plan.Plan // batched backends: float32 or int8-fast (nil on bit-exact int8 and legacy)
	iplan *plan.Plan // bit-exact int8 backend

	execs sync.Pool  // *batchLane (batched plans) or *int8Lane (bit-exact int8)
	mu    sync.Mutex // serializes legacy layer-walk execution

	// legacyScratch is the layer walk's softmax scratch; the walk is
	// already serialized on mu, so one buffer suffices. The plan
	// backends keep scratch on their pooled lanes instead — Model
	// methods are concurrency-safe, so per-call state must live on
	// per-call pooled contexts, never on the Model.
	legacyScratch []float32
}

// batchLane is one pooled float32 execution context: the batched
// executor plus per-image-slot softmax scratch (per slot because the
// executor's bands may visit exits for different slots concurrently).
type batchLane struct {
	be      *plan.BatchExec
	scratch [][]float32
}

// int8Lane is one pooled int8 execution context.
type int8Lane struct {
	ex      *plan.Exec
	st      *plan.State
	scratch []float32
}

// DefaultMaxBatch is the micro-batch bound models are built with when
// the caller does not choose one.
const DefaultMaxBatch = 8

// NewModel binds a deployment to a serving backend. backend resolution
// follows the runtime's precedence: an explicit choice wins, otherwise
// the deployment's own DefaultBackend, otherwise the compiled plan.
// Architectures the plan compiler cannot size (no leading conv with
// nominal dims) are rejected — the serving boundary must know the input
// shape to validate requests before the nn layer walk can panic.
func NewModel(d *core.Deployed, backend core.InferBackend, maxBatch int) (*Model, error) {
	if d == nil {
		return nil, fmt.Errorf("batch: nil deployment")
	}
	if maxBatch < 1 {
		maxBatch = DefaultMaxBatch
	}
	if backend == core.BackendDefault {
		backend = d.DefaultBackend
	}
	backend = backend.Resolve()

	geom, err := plan.InferGeometry(d.Net)
	if err != nil {
		return nil, fmt.Errorf("batch: cannot serve this architecture: %w", err)
	}
	m := &Model{d: d, backend: backend, geom: geom, maxBatch: maxBatch}
	switch backend {
	case core.BackendInt8:
		m.iplan, err = d.Int8PlanPinned()
		if err != nil {
			return nil, fmt.Errorf("batch: int8 lowering failed: %w", err)
		}
	case core.BackendInt8Fast:
		// The packed-weight integer pipeline batches like float32: its
		// plan runs through the lane-banded BatchExec below.
		m.bplan, err = d.Int8FastPlanPinned()
		if err != nil {
			return nil, fmt.Errorf("batch: int8-fast lowering failed: %w", err)
		}
	case core.BackendLegacy:
		// Explicit layer-walk request: don't compile (and cache) a float
		// plan that would never run.
		m.legacyScratch = make([]float32, d.Net.Classes)
	default:
		// BackendPlan serves from the compiled float plan when it
		// compiles; otherwise the layer walk keeps unsupported-but-valid
		// architectures servable.
		if m.bplan, err = d.FloatPlan(); err != nil {
			m.bplan = nil
			m.backend = core.BackendLegacy
			m.legacyScratch = make([]float32, d.Net.Classes)
		}
	}
	return m, nil
}

// Deployed returns the model's deployment.
func (m *Model) Deployed() *core.Deployed { return m.d }

// Backend returns the resolved serving backend.
func (m *Model) Backend() core.InferBackend { return m.backend }

// NumExits returns the number of exits the model serves.
func (m *Model) NumExits() int { return m.d.Net.NumExits() }

// MaxBatch returns the largest micro-batch InferBatch dispatches at
// once; longer request slices are chunked.
func (m *Model) MaxBatch() int { return m.maxBatch }

// InputShape returns the expected input geometry (channels, height,
// width).
func (m *Model) InputShape() (c, h, w int) { return m.geom.C, m.geom.H, m.geom.W }

// InputLen returns the expected flattened input length.
func (m *Model) InputLen() int { return m.geom.Vol() }

// Validate checks one request at the serving boundary, returning a
// client-addressable error wrapping ErrBadInput: wrong input volume,
// non-finite values, an exit bound out of range, or a threshold outside
// [0, 1]. Anything that passes cannot panic the execution layers.
func (m *Model) Validate(r *Req) error {
	if want := m.geom.Vol(); len(r.Input) != want {
		return fmt.Errorf("%w: input has %d values, want %d (%d×%d×%d CHW)",
			ErrBadInput, len(r.Input), want, m.geom.C, m.geom.H, m.geom.W)
	}
	for i, v := range r.Input {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: input[%d] is %v; values must be finite", ErrBadInput, i, v)
		}
	}
	if r.Exit >= m.NumExits() {
		return fmt.Errorf("%w: exit %d out of range: model has %d exits", ErrBadInput, r.Exit, m.NumExits())
	}
	if !(r.Threshold >= 0 && r.Threshold <= 1) { // rejects NaN too
		return fmt.Errorf("%w: threshold %v outside [0, 1]", ErrBadInput, r.Threshold)
	}
	return nil
}

// InferBatch answers a slice of already-validated requests, chunking it
// into micro-batches of at most MaxBatch. Every image's per-exit logits
// are bit-identical to a single-image run on the same backend, so the
// answer to a request does not depend on what it was batched with.
func (m *Model) InferBatch(reqs []Req) []Prediction {
	preds := make([]Prediction, len(reqs))
	for lo := 0; lo < len(reqs); lo += m.maxBatch {
		hi := min(lo+m.maxBatch, len(reqs))
		m.inferChunk(reqs[lo:hi], preds[lo:hi])
	}
	return preds
}

// Infer answers one request.
func (m *Model) Infer(r Req) Prediction {
	return m.InferBatch([]Req{r})[0]
}

// inferChunk answers one micro-batch (len <= maxBatch).
func (m *Model) inferChunk(reqs []Req, preds []Prediction) {
	last := m.NumExits() - 1
	maxExit := 0
	for i := range reqs {
		if reqs[i].Exit < 0 {
			reqs[i].Exit = last
		}
		if reqs[i].Exit > maxExit {
			maxExit = reqs[i].Exit
		}
		preds[i] = Prediction{
			Backend:         m.backend.String(),
			ExitClasses:     make([]int, 0, reqs[i].Exit+1),
			ExitConfidences: make([]float64, 0, reqs[i].Exit+1),
		}
	}
	switch {
	case m.bplan != nil:
		m.inferBatched(reqs, preds, maxExit)
	case m.iplan != nil:
		m.inferInt8(reqs, preds)
	default:
		m.inferLegacy(reqs, preds)
	}
	for i := range preds {
		p := &preds[i]
		// Exit taken: the first exit whose confidence clears the
		// request's threshold, else the request's exit bound.
		take := len(p.ExitConfidences) - 1
		if th := reqs[i].Threshold; th > 0 {
			for e, c := range p.ExitConfidences {
				if c >= th {
					take = e
					break
				}
			}
		}
		p.Exit = take
		p.Class = p.ExitClasses[take]
		p.Confidence = p.ExitConfidences[take]
	}
}

// record appends exit e's verdict to p, computing confidence in the
// caller-owned scratch.
func record(p *Prediction, scratch, logits []float32) {
	p.ExitClasses = append(p.ExitClasses, plan.Argmax(logits))
	p.ExitConfidences = append(p.ExitConfidences, plan.LogitsConfidence(logits, scratch))
}

// inferBatched runs the chunk through a pooled batched executor
// (float32 or int8-fast plan), scanning every exit up to the chunk
// bound in one pass.
func (m *Model) inferBatched(reqs []Req, preds []Prediction, maxExit int) {
	var ln *batchLane
	if v := m.execs.Get(); v != nil {
		ln = v.(*batchLane)
	} else {
		be, err := m.bplan.NewBatchExec(m.maxBatch)
		if err != nil {
			// Unreachable: bplan is batchable by construction.
			panic(err)
		}
		ln = &batchLane{be: be, scratch: make([][]float32, m.maxBatch)}
		for i := range ln.scratch {
			ln.scratch[i] = make([]float32, m.d.Net.Classes)
		}
	}
	defer m.execs.Put(ln)
	inputs := make([][]float32, len(reqs))
	for i := range reqs {
		inputs[i] = reqs[i].Input
	}
	ln.be.ScanExits(inputs, maxExit, func(e, i int, logits []float32) {
		if e <= reqs[i].Exit {
			record(&preds[i], ln.scratch[i], logits)
		}
	})
}

// inferInt8 runs the chunk image by image on pooled int8 executors (the
// bit-exact integer reference is not batched; see BatchExec).
func (m *Model) inferInt8(reqs []Req, preds []Prediction) {
	var ln *int8Lane
	if v := m.execs.Get(); v != nil {
		ln = v.(*int8Lane)
	} else {
		ln = &int8Lane{
			ex:      m.iplan.NewExec(),
			st:      m.iplan.NewState(),
			scratch: make([]float32, m.d.Net.Classes),
		}
	}
	defer m.execs.Put(ln)
	for i := range reqs {
		img := tensor.FromSlice(reqs[i].Input, len(reqs[i].Input))
		ln.ex.InferTo(ln.st, img, 0)
		record(&preds[i], ln.scratch, ln.st.Logits())
		for e := 1; e <= reqs[i].Exit; e++ {
			ln.ex.Resume(ln.st, e)
			record(&preds[i], ln.scratch, ln.st.Logits())
		}
	}
}

// inferLegacy walks the layers directly. The walk caches forward state
// on the layers themselves, so it is serialized on the model lock
// (which also guards legacyScratch).
func (m *Model) inferLegacy(reqs []Req, preds []Prediction) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range reqs {
		img := tensor.FromSlice(reqs[i].Input, m.geom.C, m.geom.H, m.geom.W)
		st := m.d.Net.InferTo(img, 0)
		record(&preds[i], m.legacyScratch, st.Logits.Data)
		for e := 1; e <= reqs[i].Exit; e++ {
			st = m.d.Net.Resume(st, e)
			record(&preds[i], m.legacyScratch, st.Logits.Data)
		}
	}
}
