package ehinfer

// This file is the paper-reproduction bench harness: one benchmark per
// table/figure of the evaluation (§V), each printing a paper-vs-measured
// comparison, plus ablation benches for the system's main design
// choices and micro-benchmarks for the hot kernels. Run with
//
//	go test -bench=. -benchmem
//
// and read the paper-vs-measured lines each benchmark prints.

import (
	"fmt"
	"testing"
)

// BenchmarkSetupArchitecture regenerates the §V-A setup table: LeNet-EE
// per-exit FLOPs (paper: 0.4452/1.2602/1.6202 MFLOPs) and fp32 weight
// storage (paper: 580 KB).
func BenchmarkSetupArchitecture(b *testing.B) {
	var net *Network
	for i := 0; i < b.N; i++ {
		net = LeNetEE(nil)
	}
	b.ReportMetric(float64(net.ExitFLOPs(0)), "exit1-FLOPs")
	b.ReportMetric(float64(net.ExitFLOPs(1)), "exit2-FLOPs")
	b.ReportMetric(float64(net.ExitFLOPs(2)), "exit3-FLOPs")
	b.ReportMetric(float64(net.WeightBytes())/1024, "weight-KB")
	fmt.Printf("\n[§V-A setup] exits: paper {0.4452, 1.2602, 1.6202} MFLOPs → measured {%.4f, %.4f, %.4f}; weights: paper 580 KB → measured %.1f KB\n",
		float64(net.ExitFLOPs(0))/1e6, float64(net.ExitFLOPs(1))/1e6, float64(net.ExitFLOPs(2))/1e6,
		float64(net.WeightBytes())/1024)
}

// BenchmarkFig1bCompressionAccuracy regenerates Fig. 1b: per-exit
// accuracy under full precision, uniform, and nonuniform compression.
func BenchmarkFig1bCompressionAccuracy(b *testing.B) {
	var rows []struct {
		scheme string
		accs   []float64
	}
	for i := 0; i < b.N; i++ {
		net := LeNetEE(nil)
		sur, err := NewSurrogate(net, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		for _, p := range []struct {
			name string
			pol  *Policy
		}{
			{"Full-precision", FullPrecision(net)},
			{"Uniform", Fig1bUniform(net)},
			{"Nonuniform", Fig1bNonuniform()},
		} {
			rows = append(rows, struct {
				scheme string
				accs   []float64
			}{p.name, sur.ExitAccuracies(p.pol)})
		}
	}
	paper := [][]float64{{0.649, 0.720, 0.730}, {0.573, 0.652, 0.675}, {0.619, 0.685, 0.699}}
	fmt.Printf("\n[Fig. 1b] per-exit accuracy (exit1/exit2/exit3):\n")
	for i, r := range rows {
		fmt.Printf("  %-15s paper {%.1f %.1f %.1f}%% → measured {%.1f %.1f %.1f}%%\n",
			r.scheme,
			100*paper[i][0], 100*paper[i][1], 100*paper[i][2],
			100*r.accs[0], 100*r.accs[1], 100*r.accs[2])
	}
}

// BenchmarkFig4PolicySearch regenerates Fig. 4: the DDPG dual-agent
// search's layer-wise preserve ratios and bitwidths under the 1.15 MFLOPs
// + 16 KB constraints.
func BenchmarkFig4PolicySearch(b *testing.B) {
	var res *SearchResult
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		net := LeNetEE(NewRNG(3))
		sur, err := NewSurrogate(net, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err = SearchCompression(net, sur, SearchConfig{
			Episodes: 60,
			Trace:    sc.Trace,
			Schedule: sc.Schedule,
			Storage:  sc.Storage,
			Seed:     42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Racc, "Racc")
	b.ReportMetric(float64(res.Measure.ModelFLOPs)/1e6, "F-model-MFLOPs")
	b.ReportMetric(float64(res.Measure.WeightBytes)/1024, "S-model-KB")
	fmt.Printf("\n[Fig. 4] searched policy (constraints: F ≤ 1.15 MFLOPs, S ≤ 16 KB; measured F = %.3f M, S = %.1f KB, Racc = %.3f):\n%s",
		float64(res.Measure.ModelFLOPs)/1e6, float64(res.Measure.WeightBytes)/1024, res.Racc, res.Policy)
}

// BenchmarkFig5IEpmJ regenerates Fig. 5 plus the §V-C accuracy rows:
// IEpmJ and average accuracies for ours vs SonicNet/SpArSeNet/LeNet-Cifar.
func BenchmarkFig5IEpmJ(b *testing.B) {
	var rows []SystemRow
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		d, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		rows, err = CompareSystems(sc, d, CompareConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	paperIEpmJ := []float64{0.89, 0.25, 0.05, 0.70}
	paperAccAll := []float64{50.1, 14.0, 2.6, 39.2}
	paperAccProc := []float64{65.4, 75.4, 82.7, 74.7}
	b.ReportMetric(rows[0].IEpmJ, "IEpmJ-ours")
	fmt.Printf("\n[Fig. 5 / §V-C] IEpmJ and accuracy:\n")
	for i, r := range rows {
		fmt.Printf("  %-13s IEpmJ: paper %.2f → measured %.3f | acc(all): paper %.1f%% → %.1f%% | acc(processed): paper %.1f%% → %.1f%%\n",
			r.System, paperIEpmJ[i], r.IEpmJ, paperAccAll[i], 100*r.AccAll, paperAccProc[i], 100*r.AccProcessed)
	}
	fmt.Printf("  factors: vs SonicNet paper 3.6× → %.1f×; vs SpArSeNet paper 18.9× → %.1f×; vs LeNet-Cifar paper 1.28× → %.2f×\n",
		rows[0].IEpmJ/rows[1].IEpmJ, rows[0].IEpmJ/rows[2].IEpmJ, rows[0].IEpmJ/rows[3].IEpmJ)
}

// BenchmarkFig6FLOPs regenerates Fig. 6: per-exit FLOPs before/after
// compression and the baseline FLOPs bars.
func BenchmarkFig6FLOPs(b *testing.B) {
	net := LeNetEE(nil)
	before := []int64{net.ExitFLOPs(0), net.ExitFLOPs(1), net.ExitFLOPs(2)}
	var after []int64
	for i := 0; i < b.N; i++ {
		cnet := LeNetEE(NewRNG(7))
		if err := ApplyPolicy(cnet, Fig1bNonuniform()); err != nil {
			b.Fatal(err)
		}
		after = []int64{cnet.ExitFLOPs(0), cnet.ExitFLOPs(1), cnet.ExitFLOPs(2)}
	}
	paperRatio := []float64{0.31, 0.44, 0.67}
	fmt.Printf("\n[Fig. 6] FLOPs before → after compression:\n")
	for i := 0; i < 3; i++ {
		ratio := float64(after[i]) / float64(before[i])
		fmt.Printf("  Exit%d: %.4fM → %.4fM (ratio: paper %.2f× → measured %.2f×)\n",
			i+1, float64(before[i])/1e6, float64(after[i])/1e6, paperRatio[i], ratio)
	}
	for _, bl := range AllBaselines() {
		fmt.Printf("  %-12s %.2fM FLOPs (single exit, uncompressed)\n", bl.Name, float64(bl.FLOPs)/1e6)
	}
}

// BenchmarkFig7aRuntimeLearning regenerates Fig. 7a: the per-episode
// average-accuracy learning curve of Q-learning vs the static LUT.
func BenchmarkFig7aRuntimeLearning(b *testing.B) {
	var q, s []float64
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		d, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		q, s, err = LearningCurve(sc, d, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sAvg float64
	for _, v := range s {
		sAvg += v
	}
	sAvg /= float64(len(s))
	late := (q[len(q)-1] + q[len(q)-2]) / 2
	b.ReportMetric(late, "q-final-acc")
	b.ReportMetric(sAvg, "static-acc")
	fmt.Printf("\n[Fig. 7a] learning curve (paper: Q rises to ≈55%% vs static ≈50%%, +10.2%%):\n  episodes: ")
	for _, v := range q {
		fmt.Printf("%.1f ", 100*v)
	}
	fmt.Printf("\n  static mean %.1f%%, Q final %.1f%% (measured %+.1f%% relative)\n",
		100*sAvg, 100*late, 100*(late/sAvg-1))
}

// BenchmarkFig7bExitUsage regenerates Fig. 7b: exit-usage histograms for
// trained Q-learning vs the static LUT.
func BenchmarkFig7bExitUsage(b *testing.B) {
	var qh, sh []int
	var qp, sp int
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		d, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		qh, sh, qp, sp, err = ExitUsage(sc, d, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := 500.0
	fmt.Printf("\n[Fig. 7b] exit usage (%% of all events):\n")
	fmt.Printf("  Q-learning: paper {71.0, 2.8, 11.4}%% → measured {%.1f, %.1f, %.1f}%% (processed %d)\n",
		100*float64(qh[0])/n, 100*float64(qh[1])/n, 100*float64(qh[2])/n, qp)
	fmt.Printf("  Static LUT: paper {57.6, 3.8, 15.2}%% → measured {%.1f, %.1f, %.1f}%% (processed %d)\n",
		100*float64(sh[0])/n, 100*float64(sh[1])/n, 100*float64(sh[2])/n, sp)
	fmt.Printf("  processed events: paper +11.2%% → measured %+.1f%%\n", 100*(float64(qp)/float64(sp)-1))
}

// BenchmarkLatencyPerEvent regenerates the §V-D latency comparison:
// per-event latency (time units) and per-inference FLOPs.
func BenchmarkLatencyPerEvent(b *testing.B) {
	var rows []SystemRow
	for i := 0; i < b.N; i++ {
		sc := DefaultScenario(42)
		d, err := BuildDeployed(Fig1bNonuniform(), 42)
		if err != nil {
			b.Fatal(err)
		}
		rows, err = CompareSystems(sc, d, CompareConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	paperLat := []float64{18.0, 139.9, 183.4, 56.7}
	b.ReportMetric(rows[0].MeanLatencyS, "latency-ours-s")
	fmt.Printf("\n[§V-D] per-event latency (1 s time units):\n")
	for i, r := range rows {
		fmt.Printf("  %-13s paper %.1f → measured %.1f | per-inference %.3f MFLOPs\n",
			r.System, paperLat[i], r.MeanLatencyS, r.MeanInfFLOPs/1e6)
	}
	fmt.Printf("  improvements: vs SonicNet paper 7.8× → %.1f×; vs SpArSeNet paper 10.2× → %.1f×; vs LeNet-Cifar paper 3.15× → %.1f×\n",
		rows[1].MeanLatencyS/rows[0].MeanLatencyS,
		rows[2].MeanLatencyS/rows[0].MeanLatencyS,
		rows[3].MeanLatencyS/rows[0].MeanLatencyS)
}
