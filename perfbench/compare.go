package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchFile is the part of BENCHMARK.json compare needs.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain implements "perfbench compare [-bench BENCHMARK.json]
// parent.jsonl change.jsonl": for each workload and metric it prints
// both sides' medians and quartiles, the change's win share over the
// runs paired in order (run them alternating), and a verdict.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(os.Stdout, bf, parent, change)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one metric's values, in run order, for one workload
// and trace mode.
func series(recs []record, workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace || r.Result == nil {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads read the same as in any
// script that checks them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		m := n + 1
		idx := max(1, min(j*m/4, n-1))
		delta := float64(j*m - 4*idx)
		return (s[idx-1]*(4-delta) + s[idx]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the rule for claiming a change: improved when the
// change wins at least nine tenths of the pairs and the medians differ
// by more than the parent's quartile spread; unresolved when either
// side's spread is wider than the bound, unless every change run beats
// every parent run; worse when the change's median is worse by more
// than the bound; otherwise no worse. A metric without a bound (a
// per-layer one) is improved, worse by the mirrored win rule, or
// unresolved.
func verdict(p, c []float64, higher bool, bound float64) (string, int, int) {
	better := func(a, b float64) bool { return a > b == higher && a != b }
	wins, pairs := 0, min(len(p), len(c))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(c[i], p[i]):
			wins++
		case better(p[i], c[i]):
			losses++
		}
	}
	p1, pm, p3 := quartiles(p)
	c1, cm, c3 := quartiles(c)
	gap := math.Abs(cm - pm)
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && gap > p3-p1 && better(cm, pm):
		return "improved", wins, pairs
	case bound == 0 && pairs > 0 && 10*losses >= 9*pairs && gap > p3-p1:
		return "worse", wins, pairs
	case bound == 0:
		return "unresolved", wins, pairs
	}
	if (p3-p1)/math.Abs(pm) > bound || (c3-c1)/math.Abs(cm) > bound {
		allBetter := higher && slices.Min(c) > slices.Max(p) || !higher && slices.Max(c) < slices.Min(p)
		if allBetter {
			return "no worse", wins, pairs
		}
		return "unresolved", wins, pairs
	}
	worse := (cm - pm) / math.Abs(pm)
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "worse", wins, pairs
	}
	return "no worse", wins, pairs
}

func compare(w io.Writer, bf benchFile, parent, change []record) error {
	var workloads []string
	for _, r := range append(slices.Clone(parent), change...) {
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
	}
	if len(workloads) == 0 {
		return errors.New("no runs to compare")
	}
	fmt.Fprintf(w, "%-13s %-28s %-30s %-30s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "wins", "verdict")
	for _, wl := range workloads {
		for trace, defs := range [][]benchMetric{bf.EndToEnd, bf.PerLayer} {
			for _, m := range defs {
				p, c := series(parent, wl, trace, m.Name), series(change, wl, trace, m.Name)
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				v, wins, pairs := verdict(p, c, m.Better == "higher", m.Bound)
				p1, pm, p3 := quartiles(p)
				c1, cm, c3 := quartiles(c)
				fmt.Fprintf(w, "%-13s %-28s %-30s %-30s %+7.1f%% %3d/%-2d  %s\n", wl, m.Name,
					fmt.Sprintf("%.4g [%.4g %.4g]", pm, p1, p3),
					fmt.Sprintf("%.4g [%.4g %.4g]", cm, c1, c3),
					100*(cm-pm)/math.Abs(pm), wins, pairs, v)
			}
		}
	}
	return nil
}
