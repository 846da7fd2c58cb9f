package plan

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/multiexit"
	"repro/internal/tensor"
)

// rawImages flattens a test batch into the []float32 form the batched
// executor (and the serving layer) consumes.
func rawImages(n int, seed uint64) [][]float32 {
	imgs := testImages(n, seed)
	out := make([][]float32, n)
	for i, img := range imgs {
		out[i] = img.Data
	}
	return out
}

// TestBatchParity is the batched tentpole's gate: InferBatchTo output
// must be bit-identical per image to the N=1 plan across batch sizes,
// lane counts (single-lane and banded across 4 workers), exits, and
// compression policies, and the filled states must resume through a
// regular Exec exactly like single-image states.
func TestBatchParity(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for name := range policies(multiexit.LeNetEE(nil)) {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, name), func(t *testing.T) {
				prev := tensor.SetWorkers(lanes)
				defer tensor.SetWorkers(prev)
				testBatchParity(t, name, lanes)
			})
		}
	}
}

func testBatchParity(t *testing.T, name string, lanes int) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	if err := compress.Apply(net, policies(net)[name]); err != nil {
		t.Fatal(err)
	}
	geom, err := InferGeometry(net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	ex, ref := p.NewExec(), p.NewState()

	for _, n := range []int{1, 3, 4, 5, 16} {
		be, err := p.NewBatchExec(n)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(lanes, n); be.Lanes() != want {
			t.Fatalf("n=%d: %d lanes, want %d", n, be.Lanes(), want)
		}
		imgs := rawImages(n, 7)
		tensors := testImages(n, 7)
		dsts := make([]*State, n)
		for i := range dsts {
			dsts[i] = p.NewState()
		}
		for exit := 0; exit < net.NumExits(); exit++ {
			be.InferBatchTo(dsts, imgs, exit)
			for i := 0; i < n; i++ {
				ex.InferTo(ref, tensors[i], exit)
				assertStatesEqual(t, dsts[i], ref, fmt.Sprintf("n=%d exit=%d img=%d", n, exit, i))
			}
		}
		// Batched states must be resumable by a plain Exec: run the
		// batch to exit 0, resume each state to the last exit, and
		// compare against a pure single-image chain.
		last := net.NumExits() - 1
		if last > 0 {
			be.InferBatchTo(dsts, imgs, 0)
			for i := 0; i < n; i++ {
				ex.Resume(dsts[i], last)
				want := p.NewState()
				ex.InferTo(want, tensors[i], 0)
				ex.Resume(want, last)
				assertStatesEqual(t, dsts[i], want, fmt.Sprintf("n=%d resume img=%d", n, i))
			}
		}
	}
}

// assertStatesEqual compares two plan states bit for bit.
func assertStatesEqual(t *testing.T, got, want *State, ctx string) {
	t.Helper()
	for i, v := range got.Logits() {
		if v != want.Logits()[i] {
			t.Fatalf("%s: logit[%d] = %x, want %x (batched output must be bit-identical)",
				ctx, i, v, want.Logits()[i])
		}
	}
	if got.Predicted() != want.Predicted() {
		t.Fatalf("%s: predicted %d vs %d", ctx, got.Predicted(), want.Predicted())
	}
	if gc, wc := got.Confidence(), want.Confidence(); gc != wc {
		t.Fatalf("%s: confidence %v vs %v", ctx, gc, wc)
	}
	if got.Exit != want.Exit {
		t.Fatalf("%s: exit %d vs %d", ctx, got.Exit, want.Exit)
	}
}

// TestScanExits checks the serving walk: logits surfaced at every exit
// match direct single-image inference to that exit, for every image.
// visit runs concurrently across lanes, so the callback only copies into
// its own preallocated (exit, img) slot and all comparison happens after
// ScanExits returns. The forced multi-lane case keeps a 1-core host from
// hiding a racy callback.
func TestScanExits(t *testing.T) {
	for _, lanes := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			if lanes > 0 {
				prev := tensor.SetWorkers(lanes)
				defer tensor.SetWorkers(prev)
			}
			testScanExits(t, lanes)
		})
	}
}

// testScanExits runs one ScanExits pass; lanes 0 keeps the host's
// default worker count.
func testScanExits(t *testing.T, lanes int) {
	net := multiexit.LeNetEE(tensor.NewRNG(3))
	geom, _ := InferGeometry(net)
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	be, err := p.NewBatchExec(n)
	if err != nil {
		t.Fatal(err)
	}
	if lanes > 1 && be.Lanes() < 2 {
		t.Fatalf("forced %d workers but the executor has %d lane(s)", lanes, be.Lanes())
	}
	imgs := rawImages(n, 9)
	tensors := testImages(n, 9)

	exits := net.NumExits()
	slots := make([][][]float32, exits) // [exit][img] copied logits; nil = never visited
	for e := range slots {
		slots[e] = make([][]float32, n)
	}
	be.ScanExits(imgs, exits-1, func(exit, img int, logits []float32) {
		slots[exit][img] = append([]float32(nil), logits...)
	})

	ex, ref := p.NewExec(), p.NewState()
	for exit := 0; exit < exits; exit++ {
		for img := 0; img < n; img++ {
			got := slots[exit][img]
			if got == nil {
				t.Fatalf("exit %d img %d never visited", exit, img)
			}
			ex.InferTo(ref, tensors[img], exit)
			if len(got) != len(ref.Logits()) {
				t.Fatalf("exit %d img %d: %d logits, want %d", exit, img, len(got), len(ref.Logits()))
			}
			for i, v := range got {
				if v != ref.Logits()[i] {
					t.Fatalf("exit %d img %d: logit[%d] = %x, want %x", exit, img, i, v, ref.Logits()[i])
				}
			}
		}
	}
}

// TestBatchExecAllocs gates the serving hot path: a warmed single-lane
// batch executor must not allocate (multi-lane execution pays only the
// banding goroutines).
func TestBatchExecAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	net := multiexit.LeNetEE(tensor.NewRNG(4))
	geom, _ := InferGeometry(net)
	p, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	be, err := p.NewBatchExec(n)
	if err != nil {
		t.Fatal(err)
	}
	imgs := rawImages(n, 5)
	dsts := make([]*State, n)
	for i := range dsts {
		dsts[i] = p.NewState()
	}
	visit := func(_, _ int, _ []float32) {}
	for name, fn := range map[string]func(){
		"InferBatchTo": func() { be.InferBatchTo(dsts, imgs, 2) },
		"ScanExits":    func() { be.ScanExits(imgs, 2, visit) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs > 2 {
			t.Errorf("%s: %v allocs/op, want <= 2", name, allocs)
		}
	}
}

// TestBatchExecRejects covers the construction and argument contract.
func TestBatchExecRejects(t *testing.T) {
	net := multiexit.LeNetEE(tensor.NewRNG(6))
	geom, _ := InferGeometry(net)
	ip, err := CompileInt8(net, geom, Int8Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.NewBatchExec(4); err == nil {
		t.Fatal("expected error building a batch executor for an int8 plan")
	}

	fp, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	be, err := fp.NewBatchExec(2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	okImg := rawImages(1, 1)[0]
	mustPanic("oversized batch", func() {
		be.InferBatchTo([]*State{fp.NewState(), fp.NewState(), fp.NewState()},
			[][]float32{okImg, okImg, okImg}, 0)
	})
	mustPanic("bad image volume", func() {
		be.InferBatchTo([]*State{fp.NewState()}, [][]float32{make([]float32, 7)}, 0)
	})
	mustPanic("exit out of range", func() {
		be.InferBatchTo([]*State{fp.NewState()}, [][]float32{okImg}, 99)
	})
	mustPanic("state/image count mismatch", func() {
		be.InferBatchTo([]*State{fp.NewState()}, [][]float32{okImg, okImg}, 0)
	})
}
