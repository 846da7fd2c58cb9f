// Package accmodel provides the calibrated analytic accuracy surrogate
// used by the compression search reward and the paper-figure benches.
//
// The paper evaluates each candidate compression policy by measuring exit
// accuracies on a representative dataset — 6 GPU-hours per search. In
// this offline, CPU-only reproduction we substitute a surrogate:
// per-exit accuracy is modelled as the full-precision
// accuracy attenuated by per-layer degradation factors,
//
//	Acc_i(policy) = AccFull_i · Π_{l ∈ path(i)} (1 − D_l)
//	D_l = sens_l · (Cp·((1/α_l)^0.8 − 1) + Cw·r(bw_l) + Ca·r(ba_l))
//	r(b) = 2^{−(b−1)·0.83}   (0 for full precision)
//
// where sens_l is larger for layers feeding shallow exits (early exits
// have less downstream capacity to absorb damage — the effect Fig. 1b
// demonstrates) and the C coefficients differ for conv vs dense layers
// (conv features are more precision-sensitive; §V-B observes FC layers
// tolerate 1-bit weights). The constants below are calibrated so the
// paper's three Fig. 1b operating points (full precision, uniform,
// nonuniform) reproduce within about one accuracy point, and the
// surrogate's monotonicity is validated against real SynthCIFAR training
// in the integration tests.
package accmodel

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/multiexit"
	"repro/internal/nn"
)

// Calibration constants (see package comment). Derived in closed form
// from the paper's Fig. 1b operating points; the accmodel tests pin the
// resulting predictions to those anchors.
var (
	// PruneCoef is Cp per layer kind.
	PruneCoefConv  = 0.030
	PruneCoefDense = 0.004
	// WeightQuantCoef is Cw per layer kind.
	WeightQuantCoefConv  = 0.045
	WeightQuantCoefDense = 0.008
	// ActQuantCoef is Ca per layer kind.
	ActQuantCoefConv  = 0.015
	ActQuantCoefDense = 0.004
	// SensByEarliestExit maps a layer's earliest consuming exit to its
	// sensitivity multiplier: layers feeding shallow exits are the most
	// fragile (Fig. 1b's motivating observation).
	SensByEarliestExit = []float64{1.75, 0.70, 0.30}
	// BitDecay is the exponent rate in r(b).
	BitDecay = 0.83
	// PruneExp is the exponent in the capacity-loss prune term
	// p(α) = (1/α)^PruneExp − 1, which is gentle for mild pruning but
	// diverges as α → 0 — removing nearly all channels of a LeNet-scale
	// layer destroys it, and the search must not be able to exploit a
	// model that says otherwise.
	PruneExp = 0.8
)

// Surrogate predicts per-exit accuracy for compression policies applied
// to a specific multi-exit architecture.
type Surrogate struct {
	net     *multiexit.Network
	fullAcc []float64

	// static per-layer metadata
	kind  map[string]string // "conv" | "dense"
	inDim map[string]int    // input channels / activations
	sens  map[string]float64
}

// New builds a surrogate for net whose full-precision per-exit accuracies
// are fullAcc (defaults to the paper's 64.9/72.0/73.0 for 3-exit nets
// when nil).
func New(net *multiexit.Network, fullAcc []float64) (*Surrogate, error) {
	if fullAcc == nil {
		if net.NumExits() != 3 {
			return nil, fmt.Errorf("accmodel: default accuracies are for 3 exits, network has %d", net.NumExits())
		}
		fullAcc = []float64{
			multiexit.PaperExit1Acc,
			multiexit.PaperExit2Acc,
			multiexit.PaperExit3Acc,
		}
	}
	if len(fullAcc) != net.NumExits() {
		return nil, fmt.Errorf("accmodel: %d accuracies for %d exits", len(fullAcc), net.NumExits())
	}
	s := &Surrogate{
		net:     net,
		fullAcc: append([]float64(nil), fullAcc...),
		kind:    make(map[string]string),
		inDim:   make(map[string]int),
		sens:    make(map[string]float64),
	}
	for _, l := range net.CompressibleLayers() {
		name := l.Name()
		switch layer := l.(type) {
		case *nn.Conv2D:
			s.kind[name] = "conv"
			s.inDim[name] = layer.InC
		case *nn.Dense:
			s.kind[name] = "dense"
			s.inDim[name] = layer.In
		}
		exit := net.EarliestExitUsing(name)
		if exit < 0 || exit >= len(SensByEarliestExit) {
			s.sens[name] = SensByEarliestExit[len(SensByEarliestExit)-1]
		} else {
			s.sens[name] = SensByEarliestExit[exit]
		}
	}
	return s, nil
}

// FullAccuracies returns the surrogate's full-precision anchors.
func (s *Surrogate) FullAccuracies() []float64 {
	return append([]float64(nil), s.fullAcc...)
}

// bitPenalty is r(b).
func bitPenalty(bits int) float64 {
	if bits >= compress.FullBits || bits <= 0 {
		return 0
	}
	return math.Exp2(-float64(bits-1) * BitDecay)
}

// LayerDegradation returns D_l for one layer policy.
func (s *Surrogate) LayerDegradation(lp compress.LayerPolicy) float64 {
	kind, ok := s.kind[lp.Layer]
	if !ok {
		return 0
	}
	// Effective preserve ratio after discretizing to whole channels, so
	// e.g. pruning a 3-channel input at α=0.9 costs nothing.
	in := s.inDim[lp.Layer]
	alpha := float64(compress.KeepCount(in, lp.PreserveRatio)) / float64(in)

	var cp, cw, ca float64
	if kind == "conv" {
		cp, cw, ca = PruneCoefConv, WeightQuantCoefConv, ActQuantCoefConv
	} else {
		cp, cw, ca = PruneCoefDense, WeightQuantCoefDense, ActQuantCoefDense
	}
	d := cp*(math.Pow(1/alpha, PruneExp)-1) + cw*bitPenalty(lp.WeightBits) + ca*bitPenalty(lp.ActBits)
	d *= s.sens[lp.Layer]
	if d > 0.9 {
		d = 0.9
	}
	return d
}

// ExitAccuracies predicts the per-exit accuracy of net under policy.
// Layers absent from the policy are treated as uncompressed.
func (s *Surrogate) ExitAccuracies(policy *compress.Policy) []float64 {
	m := s.net.NumExits()
	accs := make([]float64, m)
	deg := make(map[string]float64, len(policy.Layers))
	for _, lp := range policy.Layers {
		deg[lp.Layer] = s.LayerDegradation(lp)
	}
	for i := 0; i < m; i++ {
		acc := s.fullAcc[i]
		for _, name := range s.pathLayerNames(i) {
			if d, ok := deg[name]; ok {
				acc *= 1 - d
			}
		}
		accs[i] = acc
	}
	return accs
}

// pathLayerNames lists the compressible layers on exit i's path.
func (s *Surrogate) pathLayerNames(i int) []string {
	var names []string
	collect := func(seq *nn.Sequential) {
		for _, l := range seq.Layers {
			switch l.(type) {
			case *nn.Conv2D, *nn.Dense:
				names = append(names, l.Name())
			}
		}
	}
	for k := 0; k <= i; k++ {
		collect(s.net.Segments[k])
	}
	collect(s.net.Branches[i])
	return names
}
