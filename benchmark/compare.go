package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// manifest is BENCHMARK.json, the contract this benchmark is run under.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest() (manifest, error) {
	var m manifest
	root, err := repoRoot()
	if err != nil {
		return m, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

func readSet(path string) ([]setRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []setRun
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func compareFiles(a, b string) error {
	setA, err := readSet(a)
	if err != nil {
		return err
	}
	setB, err := readSet(b)
	if err != nil {
		return err
	}
	return compareSets(setA, setB)
}

// compareSets holds set B to set A under the bounds of BENCHMARK.json, one
// row per workload and metric. A metric is worse when B's median is beyond
// the bound; it is unresolved, not unchanged, when either set's own spread
// (quartile distance over median) is wider than the bound, unless every run
// of B reads better than every run of A.
func compareSets(a, b []setRun) error {
	m, err := readManifest()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tA q1\tA median\tA q3\tA spread\tB q1\tB median\tB q3\tB spread\tdelta\tbound\tverdict\t")
	bad := 0
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			va, vb := values(a, w.Name, e.Name), values(b, w.Name, e.Name)
			if len(va) < 2 || len(vb) < 2 {
				return fmt.Errorf("%s %s: %d and %d runs, need two of each", w.Name, e.Name, len(va), len(vb))
			}
			sign := 1.0 // positive delta is worse
			if e.Better == "higher" {
				sign = -1
			}
			v := judge(va, vb, sign, e.Bound)
			if v.word != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d+%d\t%.5g\t%.5g\t%.5g\t%.2f%%\t%.5g\t%.5g\t%.5g\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\t\n",
				w.Name, e.Name, len(va), len(vb), v.a[0], v.a[1], v.a[2], 100*v.spreadA,
				v.b[0], v.b[1], v.b[2], 100*v.spreadB, 100*v.delta, 100*e.Bound, v.word)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse or unresolved", bad)
	}
	return nil
}

func values(set []setRun, workload, name string) []float64 {
	var vs []float64
	for _, r := range set {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict is one row of a comparison: both sets' quartiles and spreads, how
// far B's median is on the worse side of A's, and the word for it.
type verdict struct {
	a, b             [3]float64
	spreadA, spreadB float64
	delta            float64
	word             string
}

// judge compares one metric of one workload, b against a, with sign +1 when
// lower is better.
func judge(a, b []float64, sign, bound float64) verdict {
	var v verdict
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	v.spreadA, v.spreadB = (v.a[2]-v.a[0])/v.a[1], (v.b[2]-v.b[0])/v.b[1]
	v.delta = sign * (v.b[1] - v.a[1]) / v.a[1]
	switch {
	case v.delta > bound:
		v.word = "worse"
	case max(v.spreadA, v.spreadB) > bound && !allBetter(a, b, sign):
		v.word = "unresolved"
	default:
		v.word = "ok"
	}
	return v
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// aaCheck measures the benchmark against itself: 2n runs of the current
// tree per workload, alternately filed under A and B, then compared like two
// commits. It is how the bounds in BENCHMARK.json are shown to hold.
func aaCheck(names []string, n int, seed int64, seconds int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	runs, err := collect(names, 2*n, seed, seconds)
	if err != nil {
		return err
	}
	var sets [2][]setRun
	for i, r := range runs {
		sets[i%2] = append(sets[i%2], r)
	}
	for i, name := range []string{"aa-A.json", "aa-B.json"} {
		if err := writeJSON(filepath.Join(root, "benchmark", "out", name), sets[i]); err != nil {
			return err
		}
	}
	if err := spreads(runs); err != nil {
		return err
	}
	return compareSets(sets[0], sets[1])
}

// spreads prints, for every workload and metric, the quartile distance of
// all runs as a share of their median, next to the bound it has to stay
// within for the benchmark to count as steady (a third of it is the target).
func spreads(runs []setRun) error {
	m, err := readManifest()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian\tspread\tbound\t")
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			vs := values(runs, w.Name, e.Name)
			if len(vs) < 2 {
				return fmt.Errorf("%s %s: %d runs, need two", w.Name, e.Name, len(vs))
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.5g\t%.2f%%\t%.0f%%\t\n", w.Name, e.Name, len(vs), q2, 100*(q3-q1)/q2, 100*e.Bound)
		}
	}
	return tw.Flush()
}
