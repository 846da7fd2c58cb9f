package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for an empty
// slice). With n samples, the p99 by nearest rank has n−⌈0.99n⌉ samples
// beyond it, which is why the open-loop phases send at least 1000.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowMedians returns the median of each run of n consecutive samples;
// the last window takes what is left.
func windowMedians(xs []float64, n int) []float64 {
	var out []float64
	for len(xs) > 0 {
		k := min(n, len(xs))
		out = append(out, median(xs[:k]))
		xs = xs[k:]
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// printTail prints the latency tail with the samples it rests on. The
// tail is printed, not gated: on a shared 2-core machine it moves from
// run to run by more than any bound the benchmark may set.
func printTail(w io.Writer, what string, latMS []float64) {
	fmt.Fprintf(w, "%s latency over %d samples: p90 %.4f ms, p99 %.4f ms (%d beyond p99)\n",
		what, len(latMS), quantile(latMS, 0.9), quantile(latMS, 0.99), len(latMS)-int(math.Ceil(0.99*float64(len(latMS)))))
}

// finite maps +Inf (the latency of a failed request) to the largest
// float64, so a failed run still prints valid JSON.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// runtimeStats reads the Go runtime counters the runtime layer reports.
type runtimeStats struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// add accumulates the change from a to b.
func (s *runtimeStats) add(a, b runtimeStats) {
	s.allocBytes += b.allocBytes - a.allocBytes
	s.gcCPU += b.gcCPU - a.gcCPU
	s.totalCPU += b.totalCPU - a.totalCPU
}

// allocKBPerOp and gcShare turn two readings around a phase of ops
// operations into the runtime layer's metrics.
func allocKBPerOp(a, b runtimeStats, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return (b.allocBytes - a.allocBytes) / 1024 / float64(ops)
}

func gcShare(a, b runtimeStats) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// hostCPU reads the steal and total columns of /proc/stat's "cpu" line,
// in clock ticks: steal is the time the hypervisor ran something else
// while this machine's CPUs had work. ok is false where the file does
// not exist.
func hostCPU() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// heapSampler tracks the live heap while the measured rounds run. The
// workload closes each round with endRound, and the figure is the median
// over rounds of each round's maximum: the run's single maximum depends
// on whether a collection happened to land on a short-lived peak, which
// made it jump between two values from run to run.
type heapSampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	cur        uint64
	rounds     []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.cur = max(h.cur, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// endRound closes a round: its maximum live heap is recorded and the
// next round starts from zero.
func (h *heapSampler) endRound() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rounds = append(h.rounds, float64(h.cur)/(1<<20))
	h.cur = 0
}

// reset starts the current round's maximum afresh, leaving out what
// came before it.
func (h *heapSampler) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cur = 0
}

// Stop ends sampling and returns the median over the rounds of their
// maximum live heap, in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.rounds)
}
