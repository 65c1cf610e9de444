package qos

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

var origin = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func newMon(sim *clock.Sim) *Monitor {
	return NewMonitor(sim, 10*time.Second, 1000)
}

func TestStatsBasics(t *testing.T) {
	sim := clock.NewSim(origin)
	m := newMon(sim)
	for i := 1; i <= 100; i++ {
		m.Record(Latency, float64(i))
		sim.Advance(time.Millisecond)
	}
	if got, ok := m.Stat(Latency, Mean); !ok || math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v %v", got, ok)
	}
	if got, _ := m.Stat(Latency, Min); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got, _ := m.Stat(Latency, Max); got != 100 {
		t.Fatalf("max = %v", got)
	}
	if got, _ := m.Stat(Latency, P50); math.Abs(got-51) > 1.5 {
		t.Fatalf("p50 = %v", got)
	}
	if got, _ := m.Stat(Latency, P95); math.Abs(got-95) > 2 {
		t.Fatalf("p95 = %v", got)
	}
	if got, _ := m.Stat(Latency, P99); math.Abs(got-99) > 2 {
		t.Fatalf("p99 = %v", got)
	}
}

func TestRate(t *testing.T) {
	sim := clock.NewSim(origin)
	m := newMon(sim)
	// 11 samples over 1 second -> 10 intervals/second.
	for i := 0; i <= 10; i++ {
		m.Record(Throughput, 1)
		if i < 10 {
			sim.Advance(100 * time.Millisecond)
		}
	}
	if got, ok := m.Stat(Throughput, Rate); !ok || math.Abs(got-10) > 1e-9 {
		t.Fatalf("rate = %v %v, want 10", got, ok)
	}
}

func TestEmptyWindow(t *testing.T) {
	m := newMon(clock.NewSim(origin))
	if _, ok := m.Stat(Latency, Mean); ok {
		t.Fatal("empty window should report no stat")
	}
	if m.Count(Latency) != 0 {
		t.Fatal("count should be 0")
	}
}

func TestWindowExpiry(t *testing.T) {
	sim := clock.NewSim(origin)
	m := NewMonitor(sim, time.Second, 1000)
	m.Record(Latency, 100)
	sim.Advance(2 * time.Second)
	m.Record(Latency, 1)
	if got, _ := m.Stat(Latency, Max); got != 1 {
		t.Fatalf("expired sample still visible: max = %v", got)
	}
	if m.Count(Latency) != 1 {
		t.Fatalf("count = %d, want 1", m.Count(Latency))
	}
}

func TestMaxSamplesCap(t *testing.T) {
	sim := clock.NewSim(origin)
	m := NewMonitor(sim, time.Hour, 10)
	for i := 0; i < 100; i++ {
		m.Record(Latency, float64(i))
	}
	if m.Count(Latency) != 10 {
		t.Fatalf("count = %d, want cap 10", m.Count(Latency))
	}
	// Oldest samples evicted: min is 90.
	if got, _ := m.Stat(Latency, Min); got != 90 {
		t.Fatalf("min = %v, want 90", got)
	}
}

func TestEvaluateCompliant(t *testing.T) {
	sim := clock.NewSim(origin)
	m := newMon(sim)
	for i := 0; i < 50; i++ {
		m.Record(Latency, 0.010)
		m.Record(Throughput, 200)
	}
	c := Contract{Name: "gold", Bounds: []Bound{
		{Dimension: Latency, Stat: P95, Limit: 0.050, Upper: true},
		{Dimension: Throughput, Stat: Mean, Limit: 100, Upper: false},
	}}
	rep := m.Evaluate(c)
	if !rep.Compliant || len(rep.Violations) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.String() != "gold: compliant" {
		t.Fatalf("string = %q", rep.String())
	}
}

func TestEvaluateViolations(t *testing.T) {
	sim := clock.NewSim(origin)
	m := newMon(sim)
	for i := 0; i < 50; i++ {
		m.Record(Latency, 0.200) // way above bound
		m.Record(Throughput, 10) // way below bound
	}
	c := Contract{Name: "gold", Bounds: []Bound{
		{Dimension: Latency, Stat: P95, Limit: 0.050, Upper: true},
		{Dimension: Throughput, Stat: Mean, Limit: 100, Upper: false},
	}}
	rep := m.Evaluate(c)
	if rep.Compliant || len(rep.Violations) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Violations[0].Observed != 0.200 {
		t.Fatalf("observed = %v", rep.Violations[0].Observed)
	}
}

func TestEvaluateSkipsEmptyDimensions(t *testing.T) {
	m := newMon(clock.NewSim(origin))
	c := Contract{Name: "c", Bounds: []Bound{
		{Dimension: Jitter, Stat: Max, Limit: 1, Upper: true},
	}}
	if rep := m.Evaluate(c); !rep.Compliant {
		t.Fatalf("no data must not violate: %+v", rep)
	}
}

func TestSnapshotKeys(t *testing.T) {
	sim := clock.NewSim(origin)
	m := newMon(sim)
	m.Record(Latency, 0.5)
	snap := m.Snapshot()
	for _, k := range []string{"latency.mean", "latency.p95", "latency.max"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing %s: %v", k, snap)
		}
	}
	if _, ok := snap["throughput.mean"]; ok {
		t.Fatal("snapshot should omit empty dimensions")
	}
}

// TestSnapshotMatchesStat: Snapshot derives mean, p95 and max from one
// sorted copy of each window; each must equal, to the bit, what Stat computes
// over the same window. Uncapped, the window is read in slot order; capped
// (maxN below the ring's 512 slots) it is sorted by claim sequence and cut.
func TestSnapshotMatchesStat(t *testing.T) {
	for _, tc := range []struct {
		name          string
		maxN, records int
	}{
		{"uncapped", 1 << 12, 3000},
		{"capped", 100, 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := clock.NewSim(origin)
			m := NewMonitor(sim, time.Hour, tc.maxN)
			dims := []Dimension{Latency, Throughput, Jitter}
			for i := 0; i < tc.records; i++ {
				for k, d := range dims {
					m.Record(d, math.Abs(math.Sin(float64(i*(k+3))))*1e-3+float64(i%7))
				}
				sim.Advance(time.Microsecond)
			}
			snap := m.Snapshot()
			if len(snap) != 3*len(dims) {
				t.Fatalf("snapshot has %d keys, want %d: %v", len(snap), 3*len(dims), snap)
			}
			for _, d := range dims {
				if n, want := m.Count(d), min(tc.maxN, tc.records); n != want {
					t.Fatalf("%s count = %d, want %d", d, n, want)
				}
				for _, st := range []Stat{Mean, P95, Max} {
					key := d.String() + "." + st.String()
					v, ok := m.Stat(d, st)
					if !ok || snap[key] != v {
						t.Fatalf("snapshot %s = %v, Stat = %v (ok %v)", key, snap[key], v, ok)
					}
				}
			}
		})
	}
	// The capped window keeps the most recently claimed samples.
	m := NewMonitor(clock.NewSim(origin), time.Hour, 100)
	for i := 0; i < 700; i++ {
		m.Record(Loss, float64(i))
	}
	if lo, _ := m.Stat(Loss, Min); lo != 600 {
		t.Fatalf("capped window min = %v, want 600", lo)
	}
}

func TestBoundAndViolationStrings(t *testing.T) {
	b := Bound{Dimension: Latency, Stat: P95, Limit: 0.05, Upper: true}
	if b.String() != "latency.p95 <= 0.05" {
		t.Fatalf("bound = %q", b.String())
	}
	lb := Bound{Dimension: Throughput, Stat: Mean, Limit: 100}
	if lb.String() != "throughput.mean >= 100" {
		t.Fatalf("bound = %q", lb.String())
	}
	v := Violation{Bound: b, Observed: 0.2}
	if v.String() != "latency.p95 <= 0.05 (observed 0.2)" {
		t.Fatalf("violation = %q", v.String())
	}
	if Dimension(0).String() != "unknown" || Stat(0).String() != "unknown" {
		t.Error("zero-value strings")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := NewMonitor(clock.Real{}, time.Minute, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Record(Latency, float64(i))
			}
		}()
	}
	wg.Wait()
	if m.Count(Latency) != 8000 {
		t.Fatalf("count = %d, want 8000", m.Count(Latency))
	}
}

func TestRecordRejectsNonFiniteSamples(t *testing.T) {
	sim := clock.NewSim(origin)
	m := newMon(sim)
	m.Record(Latency, 0.010)
	m.Record(Latency, math.NaN())
	m.Record(Latency, math.Inf(1))
	m.Record(Latency, math.Inf(-1))
	m.Record(Latency, 0.030)

	if got := m.Count(Latency); got != 2 {
		t.Fatalf("count = %d, want 2 (non-finite samples must be rejected)", got)
	}
	if got := m.Rejected(); got != 3 {
		t.Fatalf("rejected = %d, want 3", got)
	}
	mean, ok := m.Stat(Latency, Mean)
	if !ok || math.IsNaN(mean) || math.Abs(mean-0.020) > 1e-9 {
		t.Fatalf("mean = %v %v, want 0.020 (stats must stay finite)", mean, ok)
	}
	for _, st := range []Stat{P50, P95, P99, Max, Min} {
		if v, ok := m.Stat(Latency, st); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("stat %v = %v %v, want finite", st, v, ok)
		}
	}
}

func TestRecordUnknownDimensionIgnored(t *testing.T) {
	m := newMon(clock.NewSim(origin))
	m.Record(Dimension(0), 1)
	m.Record(Dimension(99), 1)
	if got := m.Count(Dimension(99)); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestRecordAllocationFree(t *testing.T) {
	m := NewMonitor(clock.Real{}, time.Minute, 1<<12)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Record(Latency, 0.001)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", allocs)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Fatalf("single sample p95 = %v", got)
	}
	if got := percentile([]float64{3, 1, 2}, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile([]float64{3, 1, 2}, 1); got != 3 {
		t.Fatalf("p100 = %v", got)
	}
}

// TestAdmissionVerdicts: four workers, a 2 ms service time. A call that
// finds a worker free is admitted whatever its budget; one that would queue
// needs budget for the estimated wait plus one service time, is Overloaded
// when it covers the service time but not the wait as well, and Unmeetable
// when it does not cover even the service time. Both refusals count as
// rejected.
func TestAdmissionVerdicts(t *testing.T) {
	const ms = int64(time.Millisecond)
	rows := []struct {
		name            string
		pending, budget int64
		want            Verdict
	}{
		{"a free worker takes any budget", 3, ms / 10, Admitted},
		{"the wait and one service time fit", 8, 7 * ms, Admitted},
		{"one service time fits, the wait does not", 8, 3 * ms, Overloaded},
		{"shorter than one service time", 8, ms, Unmeetable},
		{"shorter than one service time behind a long queue", 400, ms, Unmeetable},
	}
	for _, row := range rows {
		a := NewAdmission(4)
		a.Observe(2 * ms)
		if got := a.Admit(row.pending, row.budget); got != row.want {
			t.Errorf("%s: Admit(%d, %v) = %d, want %d", row.name, row.pending, time.Duration(row.budget), got, row.want)
		}
		want := AdmissionStats{EWMAServiceNanos: 2 * ms, Admitted: 1}
		if row.want != Admitted {
			want.Admitted, want.Rejected = 0, 1
		}
		if st := a.Stats(); st != want {
			t.Errorf("%s: stats %+v, want %+v", row.name, st, want)
		}
	}
}
