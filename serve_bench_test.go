package ehinfer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/serve"
)

// BenchmarkServerInferThroughput measures the online path end to end:
// concurrent HTTP clients posting single-image requests through JSON
// decode, validation, the micro-batching queue, and the batched plan
// executor. ns/op is per request under 8-way client concurrency — the
// server-side throughput number, not a kernel microbenchmark.
func BenchmarkServerInferThroughput(b *testing.B) {
	session := ehinfer.NewSession(ehinfer.WithWorkers(1))
	sv := serve.New(serve.WithSession(session), serve.WithBatchConfig(batch.Config{
		MaxBatch: 8,
		QueueCap: 256,
	}))
	ts := httptest.NewServer(sv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sv.Shutdown(ctx)
	}()

	deployed, err := session.BuildDeployed(ehinfer.Fig1bNonuniform())
	if err != nil {
		b.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := ehinfer.EncodeDeployed(&artifact, &ehinfer.DeploymentBundle{Name: "bench", Deployed: deployed}); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/artifacts", "application/octet-stream", &artifact)
	if err != nil {
		b.Fatal(err)
	}
	var uploaded struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&uploaded); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()

	rng := ehinfer.NewRNG(3)
	input := make([]float32, 3*32*32)
	for i := range input {
		input[i] = rng.Float32()
	}
	body, err := json.Marshal(map[string]any{"artifact": uploaded.ID, "input": input})
	if err != nil {
		b.Fatal(err)
	}

	const clients = 8
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %s", resp.Status)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
