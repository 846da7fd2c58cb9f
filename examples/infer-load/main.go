// Infer-load: a load generator for the online inference path. It boots
// the ehserved HTTP surface in-process, uploads a compressed deployment
// artifact, fires a swarm of concurrent clients at POST /v1/infer, and
// prints the /v1/stats view the operator would watch in production —
// micro-batch histogram, latency percentiles, throughput, and shed load.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/serve"
)

const (
	clients     = 8
	perClient   = 12
	inputValues = 3 * 32 * 32
)

func main() {
	// 1. A serving session and the HTTP surface: up to 8 images per
	//    dispatch, at most 64 waiting before the server sheds load.
	session := ehinfer.NewSession(ehinfer.WithWorkers(1))
	sv := serve.New(serve.WithSession(session), serve.WithBatchConfig(batch.Config{
		MaxBatch: 8,
		QueueCap: 64,
	}))
	ts := httptest.NewServer(sv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sv.Shutdown(ctx)
	}()

	// 2. Build and upload a deployment artifact, exactly as an operator
	//    would with `cmd/train -save-deployed` and curl.
	deployed, err := session.BuildDeployed(ehinfer.Fig1bNonuniform())
	if err != nil {
		log.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := ehinfer.EncodeDeployed(&artifact, &ehinfer.DeploymentBundle{
		Name: "load-target", Deployed: deployed,
	}); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/artifacts", "application/octet-stream", &artifact)
	if err != nil {
		log.Fatal(err)
	}
	var uploaded struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&uploaded); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("uploaded artifact %s (%d exits)\n", uploaded.ID, deployed.Net.NumExits())

	// 3. The swarm: concurrent clients each post a stream of single-image
	//    requests. Concurrency is what the micro-batcher feeds on — the
	//    requests that arrive while a batch computes leave together in
	//    the next dispatch. Each
	//    client retries transient sheds (429/503) through serve.Backoff —
	//    capped exponential delays with per-client deterministic jitter,
	//    honoring the server's Retry-After hints — so shed load re-offers
	//    itself instead of being lost.
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := ehinfer.NewRNG(uint64(c + 1))
			retry := serve.Backoff{
				Base:     2 * time.Millisecond,
				Cap:      50 * time.Millisecond,
				Attempts: 4,
				Seed:     uint64(c + 1), // desynchronize the clients' retry storms
			}
			for i := 0; i < perClient; i++ {
				input := make([]float32, inputValues)
				for j := range input {
					input[j] = rng.Float32()
				}
				body, _ := json.Marshal(map[string]any{
					"artifact":  uploaded.ID,
					"input":     input,
					"threshold": 0.8, // anytime: answer at the first confident exit
				})
				resp, err := retry.Do(context.Background(), http.DefaultClient, func() (*http.Request, error) {
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
					if err == nil {
						req.Header.Set("Content-Type", "application/json")
					}
					return req, err
				})
				if err != nil {
					log.Fatal(err)
				}
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1) // still shed after the retry budget: backpressure held
				default:
					log.Fatalf("unexpected status %s", resp.Status)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("served %d, shed %d of %d requests in %v\n",
		served.Load(), shed.Load(), clients*perClient, time.Since(start).Round(time.Millisecond))

	// 4. The operator's view: per-model queue stats.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Infer map[string]struct {
			Backend string      `json:"backend"`
			Queue   batch.Stats `json:"queue"`
		} `json:"infer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	for key, m := range stats.Infer {
		q := m.Queue
		fmt.Printf("%s (%s): %d served over %d batches (mean %.2f img/batch)\n",
			key, m.Backend, q.Served, q.Batches, q.MeanBatch)
		fmt.Printf("  batch histogram: %v\n", q.BatchSizes)
		fmt.Printf("  latency p50/p90/p99: %.2f / %.2f / %.2f ms, throughput %.1f req/s\n",
			q.LatencyMS.P50, q.LatencyMS.P90, q.LatencyMS.P99, q.ThroughputPerSec)
	}
}
