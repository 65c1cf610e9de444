package main

import (
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end and traced, in slices a tenth
// of the real length, and holds the output to BENCHMARK.json: every metric
// named there is emitted with its unit and a finite value, nothing else is,
// no call fails and every correctness check passes.
func TestSmoke(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{w: w, seed: 7, slices: 8, sliceLen: 40 * time.Millisecond,
				warm: 40 * time.Millisecond, builds: 2, trace: trace}
			want := map[string]string{}
			if trace {
				o.probe = 2 * time.Millisecond
				o.spanFile = filepath.Join(t.TempDir(), "spans.json")
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d failed of %d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, name)
				} else if got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q, want a finite value in %q", w.name, trace, name, got.Value, got.Unit, unit)
				} else if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: %s emitted but not in BENCHMARK.json", w.name, trace, name)
				}
			}
			if trace && w.name == "local_typed" {
				if c := res.Metrics["core.span_coverage_pct"].Value; c < 90 || c > 100 {
					t.Errorf("local_typed: client self + server queue + service cover %.1f%% of the root span, want 90-100", c)
				}
			}
		}
	}
}

// TestManifest lints BENCHMARK.json against the limits of its contract and
// against the tables this program is built from.
func TestManifest(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("bad name or unit: %q %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if !slices.Equal(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	// 4 + 22 per workload runs, each the measured seconds plus about 3 s of
	// set-up, warm-up, reduction and a no-op rebuild, and two cold builds of
	// 90 s: within 3420 s.
	if total := (4+22*len(m.Workloads))*(m.RunSeconds+3) + 2*90; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over its 3420 s", total)
	}

	if len(m.Workloads) != len(workloads) || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json and the program disagree on %q", i, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}

	if len(m.EndToEnd) != len(endToEnd) || len(m.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(m.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		e2e[e.Name] = true
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s %s, the program %s %s", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Better != "lower" || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: better=%q bound=%v", e.Name, e.Better, e.Bound)
		}
	}
	if !e2e["setup_s"] || m.EndToEnd[0].Unit != "s" {
		t.Error("setup_s in seconds is required")
	}

	if len(m.PerLayer) != len(perLayer) || len(m.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(m.PerLayer), len(perLayer))
	}
	for i, l := range m.PerLayer {
		check(l.Name, l.Unit)
		d := perLayer[i]
		if l.Name != d.name || l.Unit != d.unit || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s %s %s, the program %s %s", i, l.Name, l.Unit, l.Better, d.name, d.unit)
		}
		// Every layer metric carries its prediction: the end-to-end metric it
		// should move and the workloads it should move it on.
		if !e2e[d.moves] {
			t.Errorf("%s: moves %q, which is no end-to-end metric", d.name, d.moves)
		}
		on := strings.Fields(d.on)
		if len(on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range on {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s: on %q, which is no workload", d.name, w)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the acceptance rule is written in.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

// TestJudge covers the three verdicts of a comparison.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{101, 100, 100, 99, 102}, "ok"},
		{"inside the bound", []float64{104, 105, 103, 104, 106}, "ok"},
		{"beyond the bound", []float64{112, 111, 113, 112, 110}, "worse"},
		{"spread wider than the bound", []float64{80, 120, 100, 90, 115}, "unresolved"},
		{"wide but every run better", []float64{60, 90, 70, 80, 98}, "ok"},
	} {
		if got := judge(base, c.b, 1, 0.10).word; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(base, []float64{88, 89, 87, 88, 90}, -1, 0.10).word; got != "worse" {
		t.Errorf("higher-is-better metric that fell 12%%: %s, want worse", got)
	}
}
