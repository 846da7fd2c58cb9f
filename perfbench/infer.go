package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/serve"
)

// inferShape is one serving workload: how requests are built and how
// fast the open-loop phase sends them.
type inferShape struct {
	// backend is the request's "backend" field; empty leaves the
	// session default (the float32 plan).
	backend string
	// perReq is the number of images per request ("input" when 1,
	// "inputs" otherwise).
	perReq int
	// exitBound draws each request's exit bound from {0,1,2}, standing
	// in for an exit chosen from available energy; otherwise requests
	// go to the deepest exit.
	exitBound bool
	// rate is the open-loop Poisson arrival rate in requests per
	// second, a fifth to a third of the saturated rate on a 2-core x86
	// box: at half load, queueing magnified every slow spell of the
	// shared machine into the latency. It is fixed, not measured, so
	// two commits receive the same load.
	rate float64
}

var (
	inferSingle = inferShape{perReq: 1, rate: 110}
	inferBurst  = inferShape{perReq: 8, backend: "int8fast", exitBound: true, rate: 20}
)

const (
	imageVol = 3 * 32 * 32
	poolSize = 256 // distinct images per run
	// measuredRounds is how many rounds a run measures, each on its own
	// server and each an open-loop segment followed by a closed-loop one.
	measuredRounds = 20
)

// phaseSplit divides a run's measuring time between the open-loop phase
// and the saturation phase. The saturation rate needs the longer share
// to settle; the open loop still sends several hundred requests.
func phaseSplit(seconds float64) (open, sat time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	open = total * 2 / 5
	return open, total - open
}

// inferCase is one prepared request: its body, the batch requests it
// carries and the predictions the oracle expects for them.
type inferCase struct {
	body []byte
	reqs []batch.Req
	want []batch.Prediction
}

// runInfer runs a serving workload against an ehserved server on a
// loopback listener in this process: set-up, oracle, warm-up, then
// rounds, each on a server set up afresh, of an open-loop segment
// followed by a closed-loop one.
func runInfer(ctx context.Context, rc *runConfig, sh inferShape) (*outcome, error) {
	rng := rand.New(rand.NewPCG(rc.seed, 0x1f3e))
	pool := poolSize
	if rc.tiny {
		pool = 32
	}
	images := make([][]float32, pool)
	for i := range images {
		img := make([]float32, imageVol)
		for j := range img {
			img[j] = float32(rng.IntN(256)) / 255
		}
		images[i] = img
	}
	exits := make([]int, pool/sh.perReq)
	for i := range exits {
		exits[i] = -1
		if sh.exitBound {
			exits[i] = rng.IntN(3)
		}
	}

	o := &outcome{values: map[string]float64{}}
	var setups []float64
	setup := func() (*server, []byte, error) {
		s, art, d, err := setupServer(ctx, rc.tr, sh, images[0], exits[0])
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		o.attempted++
		setups = append(setups, d.Seconds())
		return s, art, nil
	}
	srv, artBytes, err := setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()

	// A fresh server stores its first artifact as "a1".
	cases, err := buildCases(artBytes, sh, images, exits, "a1")
	if err != nil {
		return nil, err
	}

	clients := make([]*http.Client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient()
	}
	closeConns := func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
	defer closeConns()

	// Untimed warm-up: the first seconds after set-up run slower, while
	// pools, buffers and the heap grow to their steady size.
	warmUp, roundWarmUp := 2*time.Second, 200*time.Millisecond
	if rc.tiny {
		warmUp, roundWarmUp = 300*time.Millisecond, 50*time.Millisecond
	}
	warm := &loadStats{}
	closedLoop(ctx, clients, srv.url, cases, warmUp, nil, warm)

	// Every round runs on a server set up afresh, and each of these
	// set-ups is timed. On one server, the closed loop settled into one
	// of three rates (about 455, 500 and 540 images/s on a 2-core x86
	// box) and mostly kept it for the whole run, so the run's rate
	// depended on which it met; servers set up afresh meet them in turn.
	// The phases alternate over the run in short rounds, so that both
	// see the same mix of the shared machine's fast and slow spells.
	openDur, satDur := phaseSplit(rc.seconds)
	arrivals := poissonSchedule(rng, sh.rate, openDur)
	rounds := measuredRounds
	if rc.tiny {
		rounds, arrivals = 1, arrivals[:min(len(arrivals), 40)]
	}
	heap := startHeapSampler()
	ol, sat := &loadStats{}, &loadStats{}
	var rt runtimeStats
	served := promMetrics{} // /metrics counters summed over the measured segments
	var latMS, lateMS, roundP50, roundRate []float64
	for r, next := 0, 0; r < rounds; r++ {
		srv.close()
		closeConns()
		if srv, _, err = setup(); err != nil {
			return nil, err
		}
		closedLoop(ctx, clients, srv.url, cases, roundWarmUp, nil, warm)
		heap.reset()
		m0, err := scrapeMetrics(srv.url)
		if err != nil {
			return nil, err
		}
		rt0 := readRuntime()

		segStart, segEnd := openDur*time.Duration(r)/time.Duration(rounds), openDur*time.Duration(r+1)/time.Duration(rounds)
		var seg []time.Duration
		for _, at := range arrivals[next:] {
			if at >= segEnd && r < rounds-1 {
				break
			}
			seg = append(seg, at-segStart)
		}
		var corrupt func([]byte) []byte
		if r == 0 {
			corrupt = rc.hooks.corrupt
		}
		lat, late := openLoop(ctx, clients, srv.url, cases, seg, next, rc.tr, corrupt, ol)
		latMS, lateMS = append(latMS, lat...), append(lateMS, late...)
		roundP50 = append(roundP50, quantile(lat, 0.5))
		next += len(seg)

		start := time.Now()
		n, elapsed := answered(closedLoop(ctx, clients, srv.url, cases, satDur/time.Duration(rounds), rc.tr, sat), start)
		roundRate = append(roundRate, float64(n)/elapsed.Seconds())

		rt.add(rt0, readRuntime())
		heap.endRound()
		m1, err := scrapeMetrics(srv.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m1 {
			served[k] += v - m0[k]
		}
	}
	o.values["live_heap_mb"] = heap.Stop()
	o.values["setup_s"] = median(setups)

	for _, st := range []*loadStats{warm, ol, sat} {
		o.attempted += st.attempted.Load()
		o.failed += st.failed.Load()
	}
	printTail(rc.log, "open-loop request", latMS)
	// Each round's figure, taken at the quartile on the fast side: a
	// spell in which the shared host lends this machine less CPU slows
	// the rounds it covers, and one that covers fewer than three
	// quarters of them does not move the figure. A change to the
	// program moves every round.
	o.values["latency_p50_ms"] = quantile(roundP50, 0.25)
	o.values["throughput_per_s"] = quantile(roundRate, 0.75)
	fmt.Fprintf(rc.log, "over %d rounds: open-loop p50 %.4f ms at the fast quartile, %.4f ms pooled; closed-loop rate %.1f/s at the fast quartile\n",
		rounds, o.values["latency_p50_ms"], quantile(latMS, 0.5), o.values["throughput_per_s"])
	if !rc.layers {
		return o, nil
	}

	ops := int(ol.attempted.Load() + sat.attempted.Load())
	o.values["runtime.alloc_kb_per_op"] = allocKBPerOp(runtimeStats{}, rt, ops)
	o.values["runtime.gc_cpu_share"] = gcShare(runtimeStats{}, rt)
	o.values["loadgen.late_p99_ms"] = quantile(lateMS, 0.99)
	if err := serveLayers(o.values, promMetrics{}, served, sh, ol, sat); err != nil {
		return nil, err
	}
	compute, err := replayBatches(artBytes, sh, cases, promMetrics{}, served, rc.tr)
	if err != nil {
		return nil, err
	}
	o.values["batch.compute_ms"] = compute
	o.values["batch.wait_ms"] = o.values["batch.queue_ms"] - compute
	return o, nil
}

// server is an ehserved HTTP surface on a loopback listener.
type server struct {
	sv   *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	sv := serve.New(serve.WithSession(ehinfer.NewSession()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{sv: sv, hs: &http.Server{Handler: sv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here only leaves idle connections behind
	_ = s.sv.Shutdown(ctx)
	<-s.done
}

// setupServer is one set-up as a user meets it: build the deployment,
// encode it as an artifact, start a server, upload the artifact and send
// the first request, which compiles the plan the request's backend
// needs. It returns the time until that request was answered correctly.
func setupServer(ctx context.Context, tr *tracer, sh inferShape, img []float32, exit int) (*server, []byte, time.Duration, error) {
	start := time.Now()
	t := time.Now()
	d, err := ehinfer.BuildDeployed(ehinfer.Fig1bNonuniform(), 42)
	if err != nil {
		return nil, nil, 0, err
	}
	root := tr.add("core.build_deployed", 0, 0, t, time.Now())
	var art bytes.Buffer
	t = time.Now()
	if err := ehinfer.EncodeDeployed(&art, &ehinfer.DeploymentBundle{Name: "perfbench", Deployed: d}); err != nil {
		return nil, nil, 0, err
	}
	tr.add("artifact.encode", 0, root, t, time.Now())

	srv, err := startServer()
	if err != nil {
		return nil, nil, 0, err
	}
	t = time.Now()
	status, body, err := post(ctx, http.DefaultClient, srv.url+"/v1/artifacts", art.Bytes())
	if err != nil || status != http.StatusCreated {
		return srv, nil, 0, fmt.Errorf("artifact upload: status %d: %v %s", status, err, body)
	}
	tr.add("serve.upload", 0, root, t, time.Now())
	var up struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		return srv, nil, 0, fmt.Errorf("artifact upload reply: %w", err)
	}

	imgs := make([][]float32, sh.perReq)
	for i := range imgs {
		imgs[i] = img
	}
	first, err := buildCases(art.Bytes(), sh, imgs, []int{exit}, up.ID)
	if err != nil {
		return srv, nil, 0, err
	}
	t = time.Now()
	status, body, err = post(ctx, http.DefaultClient, srv.url+"/v1/infer", first[0].body)
	if err != nil || status != http.StatusOK {
		return srv, nil, 0, fmt.Errorf("first request: status %d: %v %s", status, err, body)
	}
	if err := checkPredictions(body, first[0].want); err != nil {
		return srv, nil, 0, fmt.Errorf("first request: %w", err)
	}
	tr.add("serve.first_infer", 0, root, t, time.Now())
	return srv, art.Bytes(), time.Since(start), nil
}

// buildCases encodes one request body per group of perReq images and
// computes the oracle's answers by calling batch.Model directly on a
// decoded copy of the artifact, on the request's backend. The batch
// layer's contract makes each answer bit-identical to the server's
// whatever the micro-batch it lands in.
func buildCases(art []byte, sh inferShape, images [][]float32, exits []int, artifactID string) ([]inferCase, error) {
	model, err := oracleModel(art, sh)
	if err != nil {
		return nil, err
	}
	cases := make([]inferCase, len(images)/sh.perReq)
	for i := range cases {
		group := images[i*sh.perReq : (i+1)*sh.perReq]
		req := map[string]any{"artifact": artifactID}
		if sh.perReq == 1 {
			req["input"] = group[0]
		} else {
			req["inputs"] = group
		}
		if exits[i] >= 0 {
			req["exit"] = exits[i]
		}
		if sh.backend != "" {
			req["backend"] = sh.backend
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		reqs := make([]batch.Req, len(group))
		for j, img := range group {
			reqs[j] = batch.Req{Input: img, Options: batch.Options{Exit: exits[i]}}
		}
		cases[i] = inferCase{body: body, reqs: reqs, want: model.InferBatch(reqs)}
	}
	return cases, nil
}

func oracleModel(art []byte, sh inferShape) (*batch.Model, error) {
	b, err := ehinfer.DecodeDeployed(bytes.NewReader(art))
	if err != nil {
		return nil, err
	}
	backend := core.BackendDefault
	if sh.backend != "" {
		if backend, err = core.ParseBackend(sh.backend); err != nil {
			return nil, err
		}
	}
	return batch.NewModel(b.Deployed, backend, batch.DefaultMaxBatch)
}

// checkPredictions compares a /v1/infer reply with the oracle's answers:
// class, exit taken and every computed exit's class must match.
func checkPredictions(body []byte, want []batch.Prediction) error {
	var got struct {
		Predictions []batch.Prediction `json:"predictions"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if len(got.Predictions) != len(want) {
		return fmt.Errorf("%d predictions, want %d", len(got.Predictions), len(want))
	}
	for i, g := range got.Predictions {
		w := want[i]
		if g.Class != w.Class || g.Exit != w.Exit || !slices.Equal(g.ExitClasses, w.ExitClasses) {
			return fmt.Errorf("prediction %d: class %d exit %d exits %v, want class %d exit %d exits %v",
				i, g.Class, g.Exit, g.ExitClasses, w.Class, w.Exit, w.ExitClasses)
		}
	}
	return nil
}

// newClient returns a client holding at most one keep-alive connection:
// the load generator uses one client per CPU, so it never opens more
// connections than the box has cores.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// post sends one JSON body and reads the whole reply.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// loadStats counts one phase's requests. A request fails on a transport
// error, a status other than 200 or a reply the oracle rejects.
type loadStats struct {
	attempted, failed   atomic.Int64
	reqBytes, respBytes atomic.Int64
	sendNS              atomic.Int64 // summed send-to-last-byte time
}

// send posts one case and checks the reply, returning whether it was
// answered correctly and when it completed.
func (s *loadStats) send(ctx context.Context, c *http.Client, url string, ic *inferCase, corrupt func([]byte) []byte) (bool, time.Time) {
	s.attempted.Add(1)
	t := time.Now()
	status, body, err := post(ctx, c, url+"/v1/infer", ic.body)
	done := time.Now()
	s.sendNS.Add(int64(done.Sub(t)))
	s.reqBytes.Add(int64(len(ic.body)))
	s.respBytes.Add(int64(len(body)))
	if corrupt != nil {
		body = corrupt(body)
	}
	if err != nil || status != http.StatusOK || checkPredictions(body, ic.want) != nil {
		s.failed.Add(1)
		return false, done
	}
	return true, done
}

// answer is one correctly answered request of the saturation phase.
type answer struct {
	at     time.Time
	images int
}

// closedLoop keeps every client busy for dur: each sends its next
// request as soon as the previous one is answered. It returns the
// correct answers.
func closedLoop(ctx context.Context, clients []*http.Client, url string, cases []inferCase, dur time.Duration, tr *tracer, st *loadStats) []answer {
	var next atomic.Int64
	end := time.Now().Add(dur)
	answers := make([][]answer, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k := next.Add(1) - 1
				ic := &cases[int(k)%len(cases)]
				t := time.Now()
				ok, done := st.send(ctx, c, url, ic, nil)
				tr.add("loadgen.closed", k, 0, t, done)
				if ok {
					answers[i] = append(answers[i], answer{done, len(ic.want)})
				}
			}
		}()
	}
	wg.Wait()
	return slices.Concat(answers...)
}

// answered returns the images in answers and the time from start to
// the last of them.
func answered(answers []answer, start time.Time) (int, time.Duration) {
	var images int
	last := start
	for _, a := range answers {
		images += a.images
		if a.at.After(last) {
			last = a.at
		}
	}
	return images, last.Sub(start)
}

// poissonSchedule returns the offsets of rate×dur seeded Poisson
// arrivals. The count is fixed rather than cut at dur, so every seed
// gets the same number of latency samples.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()))
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends request k at arrivals[k] whether or not earlier ones
// were answered. When every client is busy the request waits for one;
// its latency runs from its due time to the last byte of its reply, so
// such waits count. A failed request's latency is +Inf. base numbers
// the requests, so consecutive calls walk through the cases. It returns
// each request's latency and how late it was sent, in milliseconds.
func openLoop(ctx context.Context, clients []*http.Client, url string, cases []inferCase, arrivals []time.Duration, base int,
	tr *tracer, corrupt func([]byte) []byte, st *loadStats) (latMS, lateMS []float64) {
	latMS, lateMS = make([]float64, len(arrivals)), make([]float64, len(arrivals))
	var next atomic.Int64
	var corrupted atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(arrivals) {
					return
				}
				due := start.Add(arrivals[k])
				time.Sleep(time.Until(due))
				sent := time.Now()
				var fault func([]byte) []byte
				if corrupt != nil && corrupted.CompareAndSwap(false, true) {
					fault = corrupt
				}
				ok, done := st.send(ctx, c, url, &cases[(base+k)%len(cases)], fault)
				lateMS[k] = ms(sent.Sub(due))
				latMS[k] = ms(done.Sub(due))
				if !ok {
					latMS[k] = math.Inf(1)
				}
				id := tr.add("loadgen.request", int64(base+k), 0, due, done)
				tr.add("serve.http", int64(base+k), id, sent, done)
			}
		}()
	}
	wg.Wait()
	return latMS, lateMS
}

// promMetrics is one scrape of /metrics: sample value by series text,
// e.g. `ehserved_infer_served_total{model="artifact:a1"}`.
type promMetrics map[string]float64

func scrapeMetrics(url string) (promMetrics, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := promMetrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta is series' change between two scrapes.
func delta(a, b promMetrics, series string) float64 { return b[series] - a[series] }

// histMeanMS is a histogram's mean observation between two scrapes, in
// milliseconds.
func histMeanMS(a, b promMetrics, family, labels string) float64 {
	n := delta(a, b, family+"_count"+labels)
	if n == 0 {
		return 0
	}
	return 1000 * delta(a, b, family+"_sum"+labels) / n
}

func modelKey(sh inferShape) string {
	if sh.backend != "" {
		return "artifact:a1@" + sh.backend
	}
	return "artifact:a1"
}

// serveLayers derives the serve and batch layers' metrics from the
// server's /metrics counters and the client's own timings.
func serveLayers(v map[string]float64, m0, m1 promMetrics, sh inferShape, ol, sat *loadStats) error {
	model := fmt.Sprintf(`{model=%q}`, modelKey(sh))
	v["serve.handler_ms"] = histMeanMS(m0, m1, "ehserved_request_duration_seconds", `{route="/v1/infer"}`)
	v["batch.queue_ms"] = histMeanMS(m0, m1, "ehserved_infer_latency_seconds", model)
	v["serve.codec_ms"] = v["serve.handler_ms"] - v["batch.queue_ms"]
	reqs := float64(ol.attempted.Load() + sat.attempted.Load())
	if reqs == 0 {
		return errors.New("no requests measured")
	}
	clientMS := float64(ol.sendNS.Load()+sat.sendNS.Load()) / 1e6 / reqs
	v["serve.transport_ms"] = clientMS - v["serve.handler_ms"]
	v["serve.req_kb"] = float64(ol.reqBytes.Load()+sat.reqBytes.Load()) / 1024 / reqs
	v["serve.resp_kb"] = float64(ol.respBytes.Load()+sat.respBytes.Load()) / 1024 / reqs

	batches := delta(m0, m1, "ehserved_infer_batch_size_requests_count"+model)
	if batches == 0 {
		return errors.New("no micro-batches observed")
	}
	v["batch.mean_size"] = delta(m0, m1, "ehserved_infer_batch_size_requests_sum"+model) / batches
	full := batches - delta(m0, m1, fmt.Sprintf(`ehserved_infer_batch_size_requests_bucket{model=%q,le="%d"}`,
		modelKey(sh), batch.DefaultMaxBatch-1))
	v["batch.full_share"] = full / batches
	v["batch.rejected"] = delta(m0, m1, "ehserved_infer_rejected_total"+model)
	v["batch.canceled"] = delta(m0, m1, "ehserved_infer_canceled_total"+model)
	v["batch.errored"] = delta(m0, m1, "ehserved_infer_errored_total"+model)
	return nil
}

// replayBatches times batch.Model.InferBatch on each micro-batch size the
// server dispatched during the run, and returns the mean compute time
// per dispatched micro-batch, weighted by how often each size occurred.
func replayBatches(art []byte, sh inferShape, cases []inferCase, m0, m1 promMetrics, tr *tracer) (float64, error) {
	model, err := oracleModel(art, sh)
	if err != nil {
		return 0, err
	}
	var reqs []batch.Req
	for _, c := range cases {
		reqs = append(reqs, c.reqs...)
	}
	key := modelKey(sh)
	var weighted, total float64
	prev := 0.0
	for size := 1; size <= batch.DefaultMaxBatch; size++ {
		cum := delta(m0, m1, fmt.Sprintf(`ehserved_infer_batch_size_requests_bucket{model=%q,le="%d"}`, key, size))
		count := cum - prev
		prev = cum
		if count == 0 {
			continue
		}
		var times []float64
		for rep := 0; rep < 15; rep++ {
			lo := (rep * size) % (len(reqs) - size + 1)
			in := slices.Clone(reqs[lo : lo+size])
			t := time.Now()
			model.InferBatch(in)
			done := time.Now()
			tr.add("batch.compute", 0, 0, t, done)
			times = append(times, ms(done.Sub(t)))
		}
		weighted += count * median(times)
		total += count
	}
	if total == 0 {
		return 0, errors.New("no micro-batch sizes observed")
	}
	return weighted / total, nil
}
