package batch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// stubInferer answers requests with a tag derived from the input's
// first value.
type stubInferer struct{}

func (stubInferer) InferBatch(reqs []Req) []Prediction {
	preds := make([]Prediction, len(reqs))
	for i, r := range reqs {
		preds[i] = Prediction{Class: int(r.Input[0]), Exit: r.Exit, Backend: "stub"}
	}
	return preds
}

func req(tag int) Req { return Req{Input: []float32{float32(tag)}} }

// gateInferer is a stub Inferer that parks every dispatch until the
// test lets it go, so a test decides exactly what is queued when the
// worker next gathers a batch. Each dispatch first reports its request
// tags on entered, then waits for one value on release (or for release
// to be closed, which lets every dispatch through).
type gateInferer struct {
	entered chan []int
	release chan struct{}
}

func newGate() *gateInferer {
	// entered holds more dispatches than any test makes, so a released
	// gate never blocks the worker on a report nobody reads yet.
	return &gateInferer{entered: make(chan []int, 64), release: make(chan struct{})}
}

func (g *gateInferer) InferBatch(reqs []Req) []Prediction {
	tags := make([]int, len(reqs))
	for i, r := range reqs {
		tags[i] = int(r.Input[0])
	}
	g.entered <- tags
	<-g.release
	return stubInferer{}.InferBatch(reqs)
}

// next returns the tags of the next dispatch to reach the inferer,
// which stays parked until the test releases it.
func (g *gateInferer) next(t *testing.T) []int {
	t.Helper()
	select {
	case tags := <-g.entered:
		return tags
	case <-time.After(10 * time.Second):
		t.Fatal("no dispatch reached the inferer")
		return nil
	}
}

// step releases the parked dispatch.
func (g *gateInferer) step() { g.release <- struct{}{} }

// waitAll waits for every ticket and checks each is answered with its
// own tag.
func waitAll(t *testing.T, tickets map[int]*Ticket) {
	t.Helper()
	for tag, tkt := range tickets {
		pred, err := tkt.Wait(context.Background())
		if err != nil || pred.Class != tag {
			t.Fatalf("request %d: %v / %+v", tag, err, pred)
		}
	}
}

// enqueue admits the tagged requests, filing their tickets by tag.
func enqueue(t *testing.T, q *Queue, tickets map[int]*Ticket, tags ...int) {
	t.Helper()
	for _, tag := range tags {
		tkt, err := q.Enqueue(context.Background(), req(tag))
		if err != nil {
			t.Fatalf("enqueue %d: %v", tag, err)
		}
		tickets[tag] = tkt
	}
}

// TestQueueEchoesEveryRequest drives concurrent submitters against two
// queues (two "artifacts") and checks every request is answered exactly
// once with its own prediction — the cross-model race test (-race).
func TestQueueEchoesEveryRequest(t *testing.T) {
	const submitters, perSubmitter = 8, 25
	qa := NewQueue(stubInferer{}, Config{MaxBatch: 4, QueueCap: 1024})
	qb := NewQueue(stubInferer{}, Config{MaxBatch: 7, QueueCap: 1024})
	defer qa.Close(context.Background())
	defer qb.Close(context.Background())

	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				q := qa
				if (s+i)%2 == 1 {
					q = qb
				}
				tag := s*1000 + i
				pred, err := q.Submit(context.Background(), req(tag))
				if err != nil {
					errs <- err
					continue
				}
				if pred.Class != tag {
					errs <- fmt.Errorf("tag %d answered with %d", tag, pred.Class)
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	sa, sb := qa.Stats(), qb.Stats()
	if sa.Served+sb.Served != submitters*perSubmitter {
		t.Fatalf("served %d+%d, want %d", sa.Served, sb.Served, submitters*perSubmitter)
	}
	if sa.Rejected != 0 || sb.Rejected != 0 {
		t.Fatalf("unexpected rejections %d/%d", sa.Rejected, sb.Rejected)
	}
	// The histogram must account for every dispatch, and no batch may
	// exceed its queue's bound.
	var hist int64
	for i, c := range sa.BatchSizes {
		if i+1 > 4 && c > 0 {
			t.Fatalf("queue A dispatched a batch of %d (bound 4)", i+1)
		}
		hist += c
	}
	if hist != sa.Batches {
		t.Fatalf("histogram sums to %d, batches %d", hist, sa.Batches)
	}
}

// TestQueueDispatchesLoneRequest: on an idle queue a single request
// leaves at once as a batch of one — nothing holds it back to wait for
// company.
func TestQueueDispatchesLoneRequest(t *testing.T) {
	g := newGate()
	q := NewQueue(g, Config{MaxBatch: 8, QueueCap: 16})
	defer q.Close(context.Background())

	tickets := map[int]*Ticket{}
	enqueue(t, q, tickets, 7)
	if got := g.next(t); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("dispatched %v, want [7]", got)
	}
	g.step()
	waitAll(t, tickets)
	st := q.Stats()
	if st.Batches != 1 || st.BatchSizes[0] != 1 || st.Served != 1 {
		t.Fatalf("lone request accounting: %+v", st)
	}
}

// TestQueueBatchesUnderLoad checks that requests queued behind a running
// batch coalesce: they leave together in the next dispatch, split at
// MaxBatch, in arrival order.
func TestQueueBatchesUnderLoad(t *testing.T) {
	g := newGate()
	q := NewQueue(g, Config{MaxBatch: 4, QueueCap: 16})
	defer q.Close(context.Background())

	tickets := map[int]*Ticket{}
	enqueue(t, q, tickets, 0)
	if got := g.next(t); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first dispatch %v, want [0]", got)
	}
	// The worker is parked inside batch [0]: these six pile up behind it.
	enqueue(t, q, tickets, 1, 2, 3, 4, 5, 6)
	for _, want := range [][]int{{1, 2, 3, 4}, {5, 6}} {
		g.step()
		if got := g.next(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
	g.step()
	waitAll(t, tickets)

	st := q.Stats()
	if st.Served != 7 || st.Batches != 3 {
		t.Fatalf("served %d in %d batches, want 7 in 3", st.Served, st.Batches)
	}
	if want := []int64{1, 1, 0, 1}; !reflect.DeepEqual(st.BatchSizes, want) {
		t.Fatalf("batch sizes %v, want %v", st.BatchSizes, want)
	}
	if st.LatencyMS.P50 <= 0 || st.LatencyMS.P99 < st.LatencyMS.P50 {
		t.Errorf("implausible latency percentiles %+v", st.LatencyMS)
	}
	if st.ThroughputPerSec <= 0 {
		t.Errorf("throughput %v", st.ThroughputPerSec)
	}
}

// TestQueueBackpressure fills a tiny queue behind a parked dispatch and
// checks the bound produces ErrQueueFull (the HTTP 429 signal), while
// every accepted request is still answered.
func TestQueueBackpressure(t *testing.T) {
	g := newGate()
	q := NewQueue(g, Config{MaxBatch: 2, QueueCap: 4})
	defer q.Close(context.Background())

	tickets := map[int]*Ticket{}
	enqueue(t, q, tickets, 0)
	g.next(t)
	// The worker holds request 0; the queue itself has room for four.
	enqueue(t, q, tickets, 1, 2, 3, 4)
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue(context.Background(), req(100+i)); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("enqueue past the bound: %v, want ErrQueueFull", err)
		}
	}
	close(g.release)
	waitAll(t, tickets)
	st := q.Stats()
	if st.Rejected != 3 || st.Served != 5 || st.QueueDepth != 0 || st.MaxDepth != 5 {
		t.Fatalf("stats %+v, want served 5, rejected 3, depth 0, max depth 5", st)
	}
}

// TestQueueCancellationWhileQueued cancels requests after admission but
// before dispatch: the submitter unblocks with ctx.Err(), the
// dispatcher skips the corpse, and live requests are unaffected.
func TestQueueCancellationWhileQueued(t *testing.T) {
	g := newGate()
	q := NewQueue(g, Config{MaxBatch: 16, QueueCap: 64})
	defer q.Close(context.Background())

	tickets := map[int]*Ticket{}
	enqueue(t, q, tickets, 0)
	g.next(t)
	// Queue one live request, five that are canceled while they wait,
	// and another live one, all behind the parked batch.
	enqueue(t, q, tickets, 1)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		tkt, err := q.Enqueue(ctx, req(100+i))
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := tkt.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled request got %v", err)
		}
	}
	enqueue(t, q, tickets, 2)

	g.step()
	if got := g.next(t); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("dispatched %v, want the live requests [1 2]", got)
	}
	g.step()
	waitAll(t, tickets)
	// The batch was counted before its answers went out.
	if st := q.Stats(); st.Canceled != 5 || st.Served != 3 || st.Batches != 2 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want served 3 in 2 batches, canceled 5, depth 0", st)
	}
}

// TestQueueShutdownDrain closes a queue with requests still waiting:
// every admitted request must be answered (drained, not lost) in
// batches within MaxBatch, new submissions must fail with ErrClosed,
// and no request may be answered twice.
func TestQueueShutdownDrain(t *testing.T) {
	g := newGate()
	q := NewQueue(g, Config{MaxBatch: 3, QueueCap: 128})

	const n = 20
	tickets := map[int]*Ticket{}
	enqueue(t, q, tickets, 0)
	dispatched := [][]int{g.next(t)}
	for tag := 1; tag < n; tag++ {
		enqueue(t, q, tickets, tag)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- q.Close(ctx)
	}()
	// Let the parked batch go only once Close has stopped admissions
	// and signaled the worker, so the rest leaves through the drain.
	select {
	case <-q.stop:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never signaled the worker")
	}
	close(g.release)
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := q.Submit(context.Background(), req(999)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
	waitAll(t, tickets)

	close(g.entered)
	for tags := range g.entered {
		dispatched = append(dispatched, tags)
	}
	seen := map[int]bool{}
	for _, batch := range dispatched {
		if len(batch) > 3 {
			t.Fatalf("drained a batch of %d (bound 3)", len(batch))
		}
		for _, tag := range batch {
			if seen[tag] {
				t.Fatalf("request %d dispatched twice", tag)
			}
			seen[tag] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("dispatched %d of %d", len(seen), n)
	}
	// Closing again is a no-op.
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestQueueCountsBeforeReply: a request's dispatch is in Stats by the
// time its submitter has the answer, on the success and the failure
// path alike — no polling needed.
func TestQueueCountsBeforeReply(t *testing.T) {
	q := NewQueue(&panicInferer{}, Config{MaxBatch: 4, QueueCap: 16})
	defer q.Close(context.Background())

	for i := 1; i <= 200; i++ {
		if _, err := q.Submit(context.Background(), req(i)); err != nil {
			t.Fatal(err)
		}
		if st := q.Stats(); st.Served != int64(i) || st.QueueDepth != 0 {
			t.Fatalf("after answer %d: served %d, depth %d", i, st.Served, st.QueueDepth)
		}
	}
	for i := 1; i <= 20; i++ {
		if _, err := q.Submit(context.Background(), req(1000)); !errors.Is(err, ErrInferenceFailed) {
			t.Fatalf("poisoned request: %v", err)
		}
		if st := q.Stats(); st.Errored != int64(i) || st.QueueDepth != 0 {
			t.Fatalf("after failure %d: errored %d, depth %d", i, st.Errored, st.QueueDepth)
		}
	}
}

// fixedInferer answers every batch from one preallocated slice, so a
// dispatch through it measures only the queue's own allocations.
type fixedInferer struct{ preds []Prediction }

func (f *fixedInferer) InferBatch(reqs []Req) []Prediction { return f.preds[:len(reqs)] }

// TestQueueDispatchAllocs: gathering and dispatching a batch allocates
// nothing — the runtime counterpart of dispatch's //ehlint:hotpath mark.
func TestQueueDispatchAllocs(t *testing.T) {
	const size = 4
	q := NewQueue(&fixedInferer{preds: make([]Prediction, size)}, Config{MaxBatch: size, QueueCap: 16})
	// Stop the worker: the test drives fill and dispatch itself.
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ps := make([]*pending, size)
	for i := range ps {
		ps[i] = &pending{req: req(i), ctx: context.Background(), done: make(chan outcome, 1)}
	}
	batch := make([]*pending, 0, size)
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range ps {
			q.ch <- p
		}
		batch = q.fill(batch[:0])
		q.dispatch(batch)
		for _, p := range ps {
			<-p.done
		}
	})
	if allocs != 0 {
		t.Fatalf("fill+dispatch allocated %.1f times per batch", allocs)
	}
}

// TestQueueOnRealModel wires the queue to a real plan-backed model and
// hammers it concurrently — the integration race test: concurrent
// submitters across two real artifacts with live plan executors.
func TestQueueOnRealModel(t *testing.T) {
	ma, err := NewModel(testDeployed(t, core.BackendDefault), core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewModel(testDeployed(t, core.BackendInt8), core.BackendDefault, 4)
	if err != nil {
		t.Fatal(err)
	}
	qa := NewQueue(ma, Config{MaxBatch: 4, QueueCap: 256})
	qb := NewQueue(mb, Config{MaxBatch: 4, QueueCap: 256})
	defer qa.Close(context.Background())
	defer qb.Close(context.Background())

	wantA := ma.Infer(Req{Input: testInput(7, ma.InputLen()), Options: Options{Exit: -1}})
	wantB := mb.Infer(Req{Input: testInput(7, mb.InputLen()), Options: Options{Exit: -1}})

	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q, want := qa, wantA
				if (s+i)%2 == 1 {
					q, want = qb, wantB
				}
				in := testInput(7, ma.InputLen())
				got, err := q.Submit(context.Background(), Req{Input: in, Options: Options{Exit: -1}})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Class != want.Class || got.Confidence != want.Confidence {
					t.Errorf("batched answer (%d, %v) differs from solo (%d, %v)",
						got.Class, got.Confidence, want.Class, want.Confidence)
				}
			}
		}(s)
	}
	wg.Wait()
}

// panicInferer blows up on request tags >= 1000.
type panicInferer struct{ stub stubInferer }

func (p *panicInferer) InferBatch(reqs []Req) []Prediction {
	for _, r := range reqs {
		if r.Input[0] >= 1000 {
			panic("poisoned request")
		}
	}
	return p.stub.InferBatch(reqs)
}

// TestQueueSurvivesInfererPanic: a panic during batch execution must
// fail that batch's requests with an error — and leave the worker alive
// for the next batch — never unwind the daemon.
func TestQueueSurvivesInfererPanic(t *testing.T) {
	q := NewQueue(&panicInferer{}, Config{MaxBatch: 4, QueueCap: 16})
	defer q.Close(context.Background())

	if _, err := q.Submit(context.Background(), req(1000)); !errors.Is(err, ErrInferenceFailed) {
		t.Fatalf("poisoned request: err = %v, want ErrInferenceFailed", err)
	}
	pred, err := q.Submit(context.Background(), req(7))
	if err != nil || pred.Class != 7 {
		t.Fatalf("queue did not survive the panic: %v / %+v", err, pred)
	}
	st := q.Stats()
	if st.Errored != 1 || st.Served != 1 || st.QueueDepth != 0 {
		t.Fatalf("panicked batch accounting: %+v", st)
	}
}

// TestQueueCloseIdempotentConcurrent: overlapping Close calls are safe
// and all return success once the worker exits; submissions afterward
// fail ErrClosed.
func TestQueueCloseIdempotentConcurrent(t *testing.T) {
	q := NewQueue(stubInferer{}, Config{MaxBatch: 4, QueueCap: 8})
	if _, err := q.Submit(context.Background(), req(1)); err != nil {
		t.Fatalf("warmup submit: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := q.Close(ctx); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := q.Submit(context.Background(), req(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}
