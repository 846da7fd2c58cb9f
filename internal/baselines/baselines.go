// Package baselines implements the three comparison systems of §V:
//
//   - SonicNet — the network from the SONIC intermittent-inference
//     framework [9]: a single-exit CNN (2.0 MFLOPs) executed to
//     completion across however many power cycles it takes.
//   - SpArSeNet — the NAS-for-MCU result [13]: single-exit, 11.4 MFLOPs.
//   - LeNet-Cifar — hand-designed LeNet adapted to CIFAR-10: single-exit
//     with low FLOPs (the paper notes it "fortunately fits the EH
//     scenario well").
//
// Each baseline carries the paper's reported cost and per-inference
// accuracy (used by the surrogate-driven simulations) plus a buildable
// Go architecture with approximately matching MACs (used by empirical
// examples and tests). All three run under the same intermittent engine
// as the proposed system, but with run-to-completion semantics: an
// inference pauses at power failure and resumes after recharge, which is
// exactly the indefinite-wait behaviour the paper's multi-exit model
// eliminates.
package baselines

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Baseline describes one comparison system.
type Baseline struct {
	// Name as used in the paper's figures.
	Name string
	// FLOPs is the per-inference MAC count the paper reports.
	FLOPs int64
	// WeightBytes is the deployed model size (fp32 for SonicNet /
	// LeNet-Cifar; SpArSeNet per its NAS output).
	WeightBytes int64
	// InferenceAccuracy is the paper's accuracy over processed events
	// (§V-C: 75.4% / 82.7% / 74.7%).
	InferenceAccuracy float64
	// Build constructs a runnable architecture with ≈FLOPs MACs for
	// 32×32×3 inputs and 10 classes (nil rng leaves weights zero).
	Build func(rng *tensor.RNG) *nn.Sequential
}

// SonicNet returns the SONIC [9] baseline.
func SonicNet() Baseline {
	return Baseline{
		Name:              "SonicNet",
		FLOPs:             2_000_000,
		WeightBytes:       250 * 1024,
		InferenceAccuracy: 0.754,
		Build:             buildSonicNet,
	}
}

// SpArSeNet returns the SpArSe [13] baseline.
func SpArSeNet() Baseline {
	return Baseline{
		Name:              "SpArSeNet",
		FLOPs:             11_400_000,
		WeightBytes:       180 * 1024,
		InferenceAccuracy: 0.827,
		Build:             buildSpArSeNet,
	}
}

// LeNetCifar returns the hand-designed LeNet baseline: classic LeNet-5
// with a 3-channel 32×32 input, whose MAC count is 651,720 (the paper
// does not state it; this is the architecture's own cost — conv 3→6 5×5,
// pool, conv 6→16 5×5, pool, FC 400→120→84→10). Because the paper
// gives no count, latency ratios against this baseline need not match
// the paper's exactly.
func LeNetCifar() Baseline {
	return Baseline{
		Name:              "LeNet-Cifar",
		FLOPs:             651_720,
		WeightBytes:       248 * 1024,
		InferenceAccuracy: 0.747,
		Build:             buildLeNetCifar,
	}
}

// All returns the three baselines in the paper's figure order.
func All() []Baseline {
	return []Baseline{SonicNet(), SpArSeNet(), LeNetCifar()}
}

func buildSonicNet(rng *tensor.RNG) *nn.Sequential {
	conv1 := nn.NewConv2D("sonic.conv1", 3, 16, 5, 5, 1, 0)
	conv1.NomH, conv1.NomW = 32, 32 // → 16@28×28
	conv2 := nn.NewConv2D("sonic.conv2", 16, 20, 5, 5, 1, 0)
	conv2.NomH, conv2.NomW = 14, 14 // → 20@10×10
	fc1 := nn.NewDense("sonic.fc1", 20*5*5, 400)
	fc2 := nn.NewDense("sonic.fc2", 400, 10)
	fc2.Final = true
	s := nn.NewSequential("SonicNet",
		conv1, nn.NewReLU("sonic.relu1"), nn.NewMaxPool2D("sonic.pool1", 2, 2),
		conv2, nn.NewReLU("sonic.relu2"), nn.NewMaxPool2D("sonic.pool2", 2, 2),
		nn.NewFlatten("sonic.flat"),
		fc1, nn.NewReLU("sonic.relu3"),
		fc2,
	)
	if rng != nil {
		nn.InitHe(s, rng)
	}
	return s
}

func buildSpArSeNet(rng *tensor.RNG) *nn.Sequential {
	conv1 := nn.NewConv2D("sparse.conv1", 3, 32, 3, 3, 1, 1)
	conv1.NomH, conv1.NomW = 32, 32 // → 32@32×32
	conv2 := nn.NewConv2D("sparse.conv2", 32, 32, 3, 3, 1, 1)
	conv2.NomH, conv2.NomW = 32, 32 // → 32@32×32
	conv3 := nn.NewConv2D("sparse.conv3", 32, 16, 3, 3, 1, 1)
	conv3.NomH, conv3.NomW = 16, 16 // → 16@16×16
	fc := nn.NewDense("sparse.fc", 16*8*8, 10)
	fc.Final = true
	s := nn.NewSequential("SpArSeNet",
		conv1, nn.NewReLU("sparse.relu1"),
		conv2, nn.NewReLU("sparse.relu2"), nn.NewMaxPool2D("sparse.pool1", 2, 2),
		conv3, nn.NewReLU("sparse.relu3"), nn.NewMaxPool2D("sparse.pool2", 2, 2),
		nn.NewFlatten("sparse.flat"),
		fc,
	)
	if rng != nil {
		nn.InitHe(s, rng)
	}
	return s
}

func buildLeNetCifar(rng *tensor.RNG) *nn.Sequential {
	conv1 := nn.NewConv2D("lenet.conv1", 3, 6, 5, 5, 1, 0)
	conv1.NomH, conv1.NomW = 32, 32 // → 6@28×28
	conv2 := nn.NewConv2D("lenet.conv2", 6, 16, 5, 5, 1, 0)
	conv2.NomH, conv2.NomW = 14, 14 // → 16@10×10
	fc1 := nn.NewDense("lenet.fc1", 16*5*5, 120)
	fc2 := nn.NewDense("lenet.fc2", 120, 84)
	fc3 := nn.NewDense("lenet.fc3", 84, 10)
	fc3.Final = true
	s := nn.NewSequential("LeNet-Cifar",
		conv1, nn.NewReLU("lenet.relu1"), nn.NewMaxPool2D("lenet.pool1", 2, 2),
		conv2, nn.NewReLU("lenet.relu2"), nn.NewMaxPool2D("lenet.pool2", 2, 2),
		nn.NewFlatten("lenet.flat"),
		fc1, nn.NewReLU("lenet.relu3"),
		fc2, nn.NewReLU("lenet.relu4"),
		fc3,
	)
	if rng != nil {
		nn.InitHe(s, rng)
	}
	return s
}
