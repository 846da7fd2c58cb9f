package multiexit

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Paper constants for the LeNet-EE architecture (§V-A): the extended
// four-conv LeNet with two early exits. Our channel allocation (below)
// reproduces the paper's per-exit FLOPs within ~1% and the 580 KB
// full-precision weight storage within ~1% (cmd/paperbench prints the
// paper's and the measured values side by side).
const (
	// PaperExit1FLOPs..PaperExit3FLOPs are the per-exit MAC counts the
	// paper reports (0.4452M, 1.2602M, 1.6202M).
	PaperExit1FLOPs = 445_200
	PaperExit2FLOPs = 1_260_200
	PaperExit3FLOPs = 1_620_200
	// PaperWeightBytes is the reported fp32 weight storage (580 KB).
	PaperWeightBytes = 580 * 1024
	// PaperExit1Acc..PaperExit3Acc are the full-precision CIFAR-10
	// accuracies of the three exits (§V-A).
	PaperExit1Acc = 0.649
	PaperExit2Acc = 0.720
	PaperExit3Acc = 0.730
)

// LeNetEE builds the paper's multi-exit LeNet for 32×32×3 inputs and 10
// classes:
//
//	Seg0: Conv1 3→6 5×5            → 6@28×28 → pool → 6@14×14
//	  B0: ConvB1 6→8 3×3 p1 → pool → 8@7×7 → FC-B1 392→10     (Exit 1)
//	Seg1: Conv2 6→36 5×5           → 36@10×10 → pool → 36@5×5
//	  B1: ConvB2 36→36 3×3 p1 → FC-B21 900→80 → FC-B22 80→10  (Exit 2)
//	Seg2: Conv3 36→32 3×3 p1 → Conv4 32→64 3×3 p1 → pool → 64@2×2
//	  B2: FC-B31 256→96 → FC-B32 96→10                         (Exit 3)
//
// Weights are He-initialized from rng (pass nil to leave them zero for
// pure accounting use).
func LeNetEE(rng *tensor.RNG) *Network {
	conv1 := nn.NewConv2D("Conv1", 3, 6, 5, 5, 1, 0)
	conv1.NomH, conv1.NomW = 32, 32
	seg0 := nn.NewSequential("seg0",
		conv1,
		nn.NewReLU("Conv1.relu"),
		nn.NewMaxPool2D("Conv1.pool", 2, 2),
	)

	convB1 := nn.NewConv2D("ConvB1", 6, 8, 3, 3, 1, 1)
	convB1.NomH, convB1.NomW = 14, 14
	fcB1 := nn.NewDense("FC-B1", 8*7*7, 10)
	fcB1.Final = true
	branch0 := nn.NewSequential("branch0",
		convB1,
		nn.NewReLU("ConvB1.relu"),
		nn.NewMaxPool2D("ConvB1.pool", 2, 2),
		nn.NewFlatten("ConvB1.flatten"),
		fcB1,
	)

	conv2 := nn.NewConv2D("Conv2", 6, 36, 5, 5, 1, 0)
	conv2.NomH, conv2.NomW = 14, 14
	seg1 := nn.NewSequential("seg1",
		conv2,
		nn.NewReLU("Conv2.relu"),
		nn.NewMaxPool2D("Conv2.pool", 2, 2),
	)

	convB2 := nn.NewConv2D("ConvB2", 36, 36, 3, 3, 1, 1)
	convB2.NomH, convB2.NomW = 5, 5
	fcB21 := nn.NewDense("FC-B21", 36*5*5, 80)
	fcB22 := nn.NewDense("FC-B22", 80, 10)
	fcB22.Final = true
	branch1 := nn.NewSequential("branch1",
		convB2,
		nn.NewReLU("ConvB2.relu"),
		nn.NewFlatten("ConvB2.flatten"),
		fcB21,
		nn.NewReLU("FC-B21.relu"),
		fcB22,
	)

	conv3 := nn.NewConv2D("Conv3", 36, 32, 3, 3, 1, 1)
	conv3.NomH, conv3.NomW = 5, 5
	conv4 := nn.NewConv2D("Conv4", 32, 64, 3, 3, 1, 1)
	conv4.NomH, conv4.NomW = 5, 5
	seg2 := nn.NewSequential("seg2",
		conv3,
		nn.NewReLU("Conv3.relu"),
		conv4,
		nn.NewReLU("Conv4.relu"),
		nn.NewMaxPool2D("Conv4.pool", 2, 2),
	)

	fcB31 := nn.NewDense("FC-B31", 64*2*2, 96)
	fcB32 := nn.NewDense("FC-B32", 96, 10)
	fcB32.Final = true
	branch2 := nn.NewSequential("branch2",
		nn.NewFlatten("final.flatten"),
		fcB31,
		nn.NewReLU("FC-B31.relu"),
		fcB32,
	)

	net := &Network{
		Segments: []*nn.Sequential{seg0, seg1, seg2},
		Branches: []*nn.Sequential{branch0, branch1, branch2},
		Classes:  10,
	}
	if rng != nil {
		for _, s := range net.Segments {
			nn.InitHe(s, rng)
		}
		for _, b := range net.Branches {
			nn.InitHe(b, rng)
		}
	}
	return net
}

// LeNetEELayerNames is the Fig. 4 layer ordering for the LeNet-EE
// architecture.
var LeNetEELayerNames = []string{
	"Conv1", "ConvB1", "Conv2", "ConvB2", "Conv3", "Conv4",
	"FC-B1", "FC-B21", "FC-B22", "FC-B31", "FC-B32",
}
