// Package dataset provides the image-classification data the multi-exit
// networks train and evaluate on.
//
// The paper uses CIFAR-10, which is not available in this offline
// environment. SynthCIFAR is its substitute: a
// seeded, procedural 10-class 32×32×3 generator whose classes are
// distinguishable by a small CNN and whose accuracy degrades smoothly
// under pruning/quantization — the two properties the paper's pipeline
// actually depends on. A loader for real CIFAR-10 binary batches is also
// provided for environments where the data exists.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Image dimensions shared with CIFAR-10.
const (
	Channels = 3
	Height   = 32
	Width    = 32
	// NumClasses is the number of target classes.
	NumClasses = 10
	// SampleLen is the flattened CHW length of one image.
	SampleLen = Channels * Height * Width
)

// Sample is one labelled image in CHW float32 layout, values in [0, 1].
type Sample struct {
	Image *tensor.Tensor // shape [Channels, Height, Width]
	Label int
}

// Set is an in-memory dataset.
type Set struct {
	Samples []Sample
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Samples) }

// Batch assembles samples [from, to) into an NCHW tensor and label slice.
func (s *Set) Batch(from, to int) (*tensor.Tensor, []int) {
	if from < 0 || to > len(s.Samples) || from >= to {
		panic(fmt.Sprintf("dataset: invalid batch range [%d, %d) of %d", from, to, len(s.Samples)))
	}
	n := to - from
	x := tensor.New(n, Channels, Height, Width)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		copy(x.Data[i*SampleLen:(i+1)*SampleLen], s.Samples[from+i].Image.Data)
		labels[i] = s.Samples[from+i].Label
	}
	return x, labels
}

// Shuffle permutes the samples in place using rng.
func (s *Set) Shuffle(rng *tensor.RNG) {
	for i := len(s.Samples) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		s.Samples[i], s.Samples[j] = s.Samples[j], s.Samples[i]
	}
}

// Subset returns a view of the first n samples (or all if n exceeds Len).
func (s *Set) Subset(n int) *Set {
	if n > len(s.Samples) {
		n = len(s.Samples)
	}
	return &Set{Samples: s.Samples[:n]}
}

// classPrototype holds the deterministic generative parameters for one
// SynthCIFAR class: a low-frequency color field plus an oriented grating
// and a geometric blob. Every class differs in all three, so shallow
// features (color) give partial separability while deeper features
// (texture × shape conjunctions) are needed for full accuracy — mirroring
// why deeper exits are more accurate on CIFAR-10.
type classPrototype struct {
	baseColor  [Channels]float64
	freqU      float64 // grating spatial frequency (x)
	freqV      float64 // grating spatial frequency (y)
	phase      float64
	blobCX     float64 // blob center
	blobCY     float64
	blobR      float64 // blob radius
	blobColor  [Channels]float64
	gratingAmp float64
}

// SynthConfig controls SynthCIFAR generation.
type SynthConfig struct {
	// Seed drives all randomness (prototypes derive from Seed alone, so
	// train/test splits share class structure).
	Seed uint64
	// NoiseStd is per-pixel Gaussian noise (default 0.08).
	NoiseStd float64
	// Jitter is the per-sample deformation magnitude (default 0.15):
	// random phase shifts, blob translation, and color perturbation.
	Jitter float64
}

func (c *SynthConfig) fillDefaults() {
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.08
	}
	if c.Jitter == 0 {
		c.Jitter = 0.15
	}
}

// Generator produces SynthCIFAR samples.
type Generator struct {
	cfg    SynthConfig
	protos [NumClasses]classPrototype
	rng    *tensor.RNG
}

// NewGenerator builds a SynthCIFAR generator. Class prototypes are a pure
// function of cfg.Seed.
func NewGenerator(cfg SynthConfig) *Generator {
	cfg.fillDefaults()
	protoRNG := tensor.NewRNG(cfg.Seed ^ 0xa5a5a5a5deadbeef)
	g := &Generator{cfg: cfg, rng: tensor.NewRNG(cfg.Seed + 0x51f15e)}
	for k := 0; k < NumClasses; k++ {
		p := &g.protos[k]
		for c := 0; c < Channels; c++ {
			p.baseColor[c] = 0.25 + 0.5*protoRNG.Float64()
			p.blobColor[c] = protoRNG.Float64()
		}
		p.freqU = 1 + 5*protoRNG.Float64()
		p.freqV = 1 + 5*protoRNG.Float64()
		p.phase = 2 * math.Pi * protoRNG.Float64()
		p.blobCX = 8 + 16*protoRNG.Float64()
		p.blobCY = 8 + 16*protoRNG.Float64()
		p.blobR = 4 + 6*protoRNG.Float64()
		p.gratingAmp = 0.15 + 0.2*protoRNG.Float64()
	}
	return g
}

// Sample draws one image of class label.
func (g *Generator) Sample(label int) Sample {
	if label < 0 || label >= NumClasses {
		panic(fmt.Sprintf("dataset: label %d out of range", label))
	}
	p := g.protos[label]
	j := g.cfg.Jitter
	phase := p.phase + j*g.rng.NormFloat64()*math.Pi
	cx := p.blobCX + j*8*g.rng.NormFloat64()
	cy := p.blobCY + j*8*g.rng.NormFloat64()
	r := p.blobR * (1 + 0.3*j*g.rng.NormFloat64())
	var colorShift [Channels]float64
	for c := range colorShift {
		colorShift[c] = 0.3 * j * g.rng.NormFloat64()
	}

	img := tensor.New(Channels, Height, Width)
	for y := 0; y < Height; y++ {
		for x := 0; x < Width; x++ {
			u := float64(x) / Width
			v := float64(y) / Height
			grating := p.gratingAmp * math.Sin(2*math.Pi*(p.freqU*u+p.freqV*v)+phase)
			dx := float64(x) - cx
			dy := float64(y) - cy
			inBlob := dx*dx+dy*dy <= r*r
			for c := 0; c < Channels; c++ {
				val := p.baseColor[c] + colorShift[c] + grating
				if inBlob {
					val = 0.6*p.blobColor[c] + 0.4*val
				}
				val += g.cfg.NoiseStd * g.rng.NormFloat64()
				if val < 0 {
					val = 0
				} else if val > 1 {
					val = 1
				}
				img.Set(float32(val), c, y, x)
			}
		}
	}
	return Sample{Image: img, Label: label}
}

// Generate draws n samples with labels cycling round-robin so classes are
// balanced.
func (g *Generator) Generate(n int) *Set {
	set := &Set{Samples: make([]Sample, 0, n)}
	for i := 0; i < n; i++ {
		set.Samples = append(set.Samples, g.Sample(i%NumClasses))
	}
	set.Shuffle(g.rng)
	return set
}

// TrainTest generates disjoint train and test sets from the same class
// prototypes.
func TrainTest(cfg SynthConfig, trainN, testN int) (train, test *Set) {
	g := NewGenerator(cfg)
	train = g.Generate(trainN)
	test = g.Generate(testN)
	return train, test
}
