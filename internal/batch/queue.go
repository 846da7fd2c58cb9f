package batch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Inferer executes one micro-batch of validated requests. *Model is the
// production implementation; tests substitute stubs to probe the queue's
// scheduling without paying for inference.
type Inferer interface {
	InferBatch(reqs []Req) []Prediction
}

// Config bounds a queue's batches and backlog. Batch size itself
// follows load (see Queue).
type Config struct {
	// MaxBatch is the most requests one dispatch carries (default 8).
	MaxBatch int
	// QueueCap bounds the requests waiting to be dispatched (default
	// 256). At the bound Submit fails fast with ErrQueueFull — the
	// backpressure signal the HTTP layer turns into 429.
	QueueCap int
	// Metrics routes the queue's counters into a shared obs registry
	// (one instrument set per served model). Nil gets private,
	// unregistered instruments — Stats still works, nothing is exposed.
	// The queue's counters ARE these instruments: the JSON Stats view
	// and a Prometheus exposition of the same registry cannot disagree.
	Metrics *Metrics
}

// Metrics is the obs instrument set a queue updates. Counters are
// monotonic across queue generations: when the serving layer tears a
// queue down and later rebuilds one for the same model, passing the same
// Metrics continues the series instead of resetting it.
type Metrics struct {
	// Served/Rejected/Canceled/Errored/Batches mirror the Stats fields
	// of the same names.
	Served, Rejected, Canceled, Errored, Batches *obs.Counter
	// BatchSize takes one observation per non-empty dispatch. For exact
	// per-size counts (Stats.BatchSizes), build it with unit-width
	// integer buckets: obs.LinearBuckets(1, 1, MaxBatch).
	BatchSize *obs.Histogram
	// Latency takes one observation per served request
	// (admission→answer), in seconds.
	Latency *obs.Histogram
	// Depth tracks requests admitted but not yet answered.
	Depth *obs.Gauge
}

// newPrivateMetrics builds an unregistered instrument set for queues
// whose owner did not supply one.
func newPrivateMetrics(maxBatch int) *Metrics {
	return &Metrics{
		Served:    &obs.Counter{},
		Rejected:  &obs.Counter{},
		Canceled:  &obs.Counter{},
		Errored:   &obs.Counter{},
		Batches:   &obs.Counter{},
		BatchSize: obs.NewHistogram(obs.LinearBuckets(1, 1, maxBatch)),
		Latency:   obs.NewHistogram(obs.DefLatencyBuckets),
		Depth:     &obs.Gauge{},
	}
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
}

// Queue errors.
var (
	// ErrQueueFull reports that the pending-request bound was hit; the
	// caller should shed load (HTTP 429).
	ErrQueueFull = errors.New("batch: queue is full")
	// ErrClosed reports submission to a closed queue.
	ErrClosed = errors.New("batch: queue is closed")
	// ErrInferenceFailed wraps a panic recovered during batch execution
	// — a server-side failure (HTTP 500), distinct from the transient
	// shed/shutdown conditions a client may retry.
	ErrInferenceFailed = errors.New("batch: inference failed")
	// ErrBadInput wraps every request-validation failure (wrong input
	// volume, non-finite values, exit bound out of range, bad
	// threshold) — the client-addressable taxonomy entry (HTTP 400).
	ErrBadInput = errors.New("batch: bad input")
)

// latencyRing is how many recent request latencies the percentile
// estimator keeps.
const latencyRing = 1024

// Queue accumulates inference requests into micro-batches and is
// work-conserving: whenever its worker is idle and a request is waiting,
// it dispatches at once, taking along whatever else is already queued
// (up to MaxBatch). It never holds a request back to wait for company.
// Requests that arrive while a batch computes queue up and leave
// together in the next dispatch, so batches grow with load and a lone
// request is a batch of one. One worker goroutine owns dispatch order,
// so a queue never runs its Inferer concurrently with itself
// (concurrency across models comes from one queue per model). Submit is
// safe for any number of concurrent callers.
type Queue struct {
	inf Inferer
	cfg Config

	ch   chan *pending
	stop chan struct{}
	done chan struct{}

	stateMu sync.RWMutex
	closed  bool

	// m holds the monotonic instruments (counters, size/latency
	// histograms, depth gauge); the fields below are the queue-local
	// remainder: the latency ring for percentile estimation and the
	// depth high-water mark.
	m        *Metrics
	statMu   sync.Mutex
	started  time.Time
	lats     []time.Duration
	latNext  int
	depth    int64 // requests accepted but not yet answered
	maxDepth int64

	// Dispatch scratch, sized to MaxBatch once at construction. Only
	// the worker goroutine touches these, and noteBatch copies latsBuf
	// into the ring before the next dispatch reuses it, so per-batch
	// reslicing is safe and the dispatch path stays allocation-free.
	liveBuf []*pending
	reqsBuf []Req
	latsBuf []time.Duration
}

// outcome travels back to the submitter.
type outcome struct {
	pred Prediction
	err  error
}

// pending is one queued request.
type pending struct {
	req      Req
	ctx      context.Context
	enqueued time.Time
	done     chan outcome // buffered(1): the worker never blocks on it
}

// NewQueue starts a queue dispatching onto inf. Close it to drain.
func NewQueue(inf Inferer, cfg Config) *Queue {
	cfg.fillDefaults()
	m := cfg.Metrics
	if m == nil {
		m = newPrivateMetrics(cfg.MaxBatch)
	}
	q := &Queue{
		inf:     inf,
		cfg:     cfg,
		m:       m,
		ch:      make(chan *pending, cfg.QueueCap),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		started: time.Now(),
		lats:    make([]time.Duration, 0, latencyRing),
		liveBuf: make([]*pending, 0, cfg.MaxBatch),
		reqsBuf: make([]Req, 0, cfg.MaxBatch),
		latsBuf: make([]time.Duration, 0, cfg.MaxBatch),
	}
	go q.worker()
	return q
}

// Ticket is an accepted request waiting for its answer.
type Ticket struct {
	p *pending
}

// Enqueue admits a request without waiting for the result, so a
// multi-input HTTP request can queue all its inputs before collecting
// and they can leave in the same dispatch. Fails fast with ErrQueueFull
// at the bound and ErrClosed after Close. ctx cancellation after
// admission makes the dispatcher skip the request.
func (q *Queue) Enqueue(ctx context.Context, r Req) (*Ticket, error) {
	p := &pending{req: r, ctx: ctx, enqueued: time.Now(), done: make(chan outcome, 1)}
	// The state read-lock pairs with Close's write-lock: once closed is
	// set no new request can enter ch, so the worker's final drain
	// observes a complete queue.
	q.stateMu.RLock()
	defer q.stateMu.RUnlock()
	if q.closed {
		return nil, ErrClosed
	}
	select {
	case q.ch <- p:
		q.noteEnqueued()
		return &Ticket{p: p}, nil
	default:
		q.noteRejected()
		return nil, ErrQueueFull
	}
}

// Wait blocks for the request's answer. It returns ctx.Err() if ctx
// ends first — the dispatcher then observes the cancellation and skips
// the request (its slot is never silently dropped: every admitted
// request is either answered or skipped-as-canceled, exactly once).
func (t *Ticket) Wait(ctx context.Context) (Prediction, error) {
	select {
	case out := <-t.p.done:
		return out.pred, out.err
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// Submit is Enqueue+Wait for the single-request caller.
func (q *Queue) Submit(ctx context.Context, r Req) (Prediction, error) {
	t, err := q.Enqueue(ctx, r)
	if err != nil {
		return Prediction{}, err
	}
	return t.Wait(ctx)
}

// Close stops admissions, waits for the dispatcher to drain every
// already-admitted request (each one still gets a real answer), and
// returns when the worker has exited or ctx gave up.
func (q *Queue) Close(ctx context.Context) error {
	q.stateMu.Lock()
	already := q.closed
	q.closed = true
	q.stateMu.Unlock()
	if !already {
		close(q.stop)
	}
	select {
	case <-q.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker is the dispatch loop: block for a request, take whatever else
// is already queued, execute, repeat; on stop, drain what is left.
func (q *Queue) worker() {
	defer close(q.done)
	batch := make([]*pending, 0, q.cfg.MaxBatch)
	for {
		select {
		case p := <-q.ch:
			batch = q.fill(append(batch[:0], p))
			q.dispatch(batch)
		case <-q.stop:
			// Admissions are closed: answer every request still queued,
			// in arrival order, in micro-batches.
			for batch = q.fill(batch[:0]); len(batch) > 0; batch = q.fill(batch[:0]) {
				q.dispatch(batch)
			}
			return
		}
	}
}

// fill tops batch up to MaxBatch from the requests already queued,
// without waiting for more.
//
//ehlint:hotpath
func (q *Queue) fill(batch []*pending) []*pending {
	for len(batch) < q.cfg.MaxBatch {
		select {
		case p := <-q.ch:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// dispatch executes one gathered batch: canceled requests are skipped
// (their submitters already returned), live ones run through the
// Inferer. The batch is counted before any outcome is sent, so a caller
// whose answer has arrived already sees it in Stats.
//
//ehlint:hotpath
func (q *Queue) dispatch(batch []*pending) {
	// Partition: live requests into liveBuf, canceled ones compacted in
	// place at the front of batch.
	live, canceled := q.liveBuf[:0], batch[:0]
	for _, p := range batch {
		if p.ctx != nil && p.ctx.Err() != nil {
			canceled = append(canceled, p)
		} else {
			live = append(live, p)
		}
	}
	var preds []Prediction
	var err error
	if len(live) > 0 {
		reqs := q.reqsBuf[:0]
		for _, p := range live {
			reqs = append(reqs, p.req)
		}
		// A panic fails this batch's requests and keeps the worker (and
		// the daemon) alive for the next one.
		preds, err = q.runBatch(reqs)
	}
	if err != nil {
		q.noteFailed(len(live), int64(len(canceled)))
	} else {
		now := time.Now()
		lats := q.latsBuf[:0]
		for _, p := range live {
			lats = append(lats, now.Sub(p.enqueued))
		}
		q.noteBatch(len(live), int64(len(canceled)), lats)
	}
	for _, p := range canceled {
		p.done <- outcome{err: p.ctx.Err()}
	}
	for i, p := range live {
		if err != nil {
			p.done <- outcome{err: err}
		} else {
			p.done <- outcome{pred: preds[i]}
		}
	}
}

// runBatch executes one batch on the Inferer, converting a panic into
// an error. The worker goroutine is the one place inference runs — an
// HTTP handler's recover guard cannot reach it — so this recover is
// what keeps a poisoned request from taking the whole daemon down.
func (q *Queue) runBatch(reqs []Req) (preds []Prediction, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			preds, err = nil, fmt.Errorf("%w: panic: %v", ErrInferenceFailed, rec)
		}
	}()
	return q.inf.InferBatch(reqs), nil
}

// Stats is a queue's observability snapshot (GET /v1/stats).
type Stats struct {
	// QueueDepth is the number of requests admitted but not yet
	// answered (including any batch currently executing).
	QueueDepth int `json:"queueDepth"`
	// MaxDepth is the high-water mark of QueueDepth.
	MaxDepth int `json:"maxDepth"`
	// Served counts answered requests; Rejected counts ErrQueueFull
	// refusals; Canceled counts requests whose context ended before
	// dispatch; Errored counts requests whose execution failed
	// (recovered panic) — they are not part of Served.
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
	Errored  int64 `json:"errored,omitempty"`
	// Batches counts dispatches; BatchSizes[i] counts dispatches that
	// carried i+1 requests — the micro-batching histogram.
	Batches    int64   `json:"batches"`
	BatchSizes []int64 `json:"batchSizes"`
	// MeanBatch is Served/Batches.
	MeanBatch float64 `json:"meanBatch"`
	// LatencyMS are percentiles over the most recent request latencies
	// (admission to answer), in milliseconds.
	LatencyMS LatencyStats `json:"latencyMs"`
	// ThroughputPerSec is Served divided by the queue's uptime.
	ThroughputPerSec float64 `json:"throughputPerSec"`
}

// LatencyStats are latency percentiles in milliseconds.
type LatencyStats struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// Stats snapshots the queue's counters — a JSON-shaped view over the
// same obs instruments a /metrics exposition reads, so the two views
// agree by construction.
func (q *Queue) Stats() Stats {
	q.statMu.Lock()
	defer q.statMu.Unlock()
	served, batches := q.m.Served.Value(), q.m.Batches.Value()
	bc := q.m.BatchSize.BucketCounts()
	sizes := make([]int64, len(bc)-1) // drop the +Inf overflow bucket
	for i := range sizes {
		sizes[i] = int64(bc[i])
	}
	st := Stats{
		QueueDepth: int(q.depth),
		MaxDepth:   int(q.maxDepth),
		Served:     served,
		Rejected:   q.m.Rejected.Value(),
		Canceled:   q.m.Canceled.Value(),
		Errored:    q.m.Errored.Value(),
		Batches:    batches,
		BatchSizes: sizes,
	}
	if batches > 0 {
		st.MeanBatch = float64(served) / float64(batches)
	}
	if up := time.Since(q.started).Seconds(); up > 0 {
		st.ThroughputPerSec = float64(served) / up
	}
	if len(q.lats) > 0 {
		s := append([]time.Duration(nil), q.lats...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(s)-1))
			return float64(s[i]) / float64(time.Millisecond)
		}
		st.LatencyMS = LatencyStats{P50: pct(0.50), P90: pct(0.90), P99: pct(0.99)}
	}
	return st
}

func (q *Queue) noteEnqueued() {
	q.statMu.Lock()
	q.depth++
	if q.depth > q.maxDepth {
		q.maxDepth = q.depth
	}
	q.m.Depth.Set(float64(q.depth))
	q.statMu.Unlock()
}

func (q *Queue) noteRejected() {
	q.m.Rejected.Inc()
}

// noteFailed retires a batch whose execution errored: the requests
// leave the depth accounting but are counted as errored, not served.
func (q *Queue) noteFailed(size int, ncanceled int64) {
	q.statMu.Lock()
	q.depth -= int64(size) + ncanceled
	q.m.Depth.Set(float64(q.depth))
	q.statMu.Unlock()
	q.m.Canceled.Add(ncanceled)
	q.m.Errored.Add(int64(size))
}

func (q *Queue) noteBatch(size int, ncanceled int64, lats []time.Duration) {
	q.statMu.Lock()
	q.depth -= int64(size) + ncanceled
	q.m.Depth.Set(float64(q.depth))
	for _, l := range lats {
		if len(q.lats) < latencyRing {
			q.lats = append(q.lats, l)
		} else {
			q.lats[q.latNext] = l
			q.latNext = (q.latNext + 1) % latencyRing
		}
	}
	q.statMu.Unlock()
	q.m.Canceled.Add(ncanceled)
	if size == 0 {
		return
	}
	q.m.Batches.Inc()
	q.m.Served.Add(int64(size))
	q.m.BatchSize.Observe(float64(size))
	for _, l := range lats {
		q.m.Latency.Observe(l.Seconds())
	}
}
