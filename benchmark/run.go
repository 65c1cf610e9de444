package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go holds the two
// lists to that file. Every end-to-end metric is lower-is-better.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"call_p50_us", "us"},
	{"cpu_us_per_call", "us"},
	{"allocs_per_call", "count"},
	{"bytes_per_call", "B"},
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env heads every result: what the numbers were measured on and with.
type env struct {
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	GoVersion      string  `json:"go_version"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	Commit         string  `json:"commit"`
	Seed           int64   `json:"seed"`
	Slices         int     `json:"slices"`
	SliceSeconds   float64 `json:"slice_seconds"`
	CallsPerSlice  float64 `json:"calls_per_slice"`
	RoundsPerSlice float64 `json:"rounds_per_churn_slice"`
	Transport      string  `json:"transport"`
}

// result is one run. The four fields the driver reads are printed alone as
// the last line of output; the whole struct goes to the result file.
type result struct {
	Env       env               `json:"env"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are printed beside the metrics and are not gated: the failure
	// ratio, what a churn round cost and how late it ran, spans lost, tails.
	Notes []string `json:"notes,omitempty"`
	// Slices is the per-slice record the metrics were reduced from, in run
	// order: what a reader checks when two runs disagree.
	Slices []sliceStat `json:"slices"`
}

// sliceStat is one slice as the result file keeps it. Timings are
// nanoseconds; the round figures are 0 for a slice that was not churned.
type sliceStat struct {
	Churned     bool    `json:"churned"`
	Traced      bool    `json:"traced,omitempty"`
	Calls       int     `json:"calls"`
	P50         float64 `json:"call_p50_ns"`
	P99         float64 `json:"call_p99_ns"`
	CPU         float64 `json:"cpu_ns_per_call"`
	Allocs      float64 `json:"allocs_per_call"`
	Bytes       float64 `json:"bytes_per_call"`
	Rounds      int     `json:"rounds"`
	RoundP50    float64 `json:"round_p50_ns"`
	BlackoutP50 float64 `json:"blackout_p50_ns"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runOpts sizes a run. The command line fixes everything but seed and
// seconds; the smoke test shortens slices, warm-up and probes.
type runOpts struct {
	w        workload
	seed     int64
	slices   int
	sliceLen time.Duration
	warm     time.Duration
	builds   int // set-ups timed; the median is reported, the last is kept
	trace    bool
	probe    time.Duration // budget of each isolated probe in a traced run
	spanFile string        // where a traced run writes its spans
}

// sliceLen is short against the box's noise: on a shared 2-vCPU host, stolen
// or contended time comes in bursts of seconds, and a burst spoils only the
// slices it falls in.
const sliceLen = 500 * time.Millisecond

// fromSeconds lays a run out over the seconds the command line gives: all
// of them in slices end to end; in a traced run half of them, the rest left
// to the probes.
func fromSeconds(w workload, seed int64, seconds int, trace bool) runOpts {
	o := runOpts{w: w, seed: seed, sliceLen: sliceLen, warm: 500 * time.Millisecond, builds: 41, trace: trace}
	o.slices = max(int(time.Duration(seconds)*time.Second/sliceLen), 4)
	if trace {
		o.slices = max(o.slices/2, 4)
		o.builds = 5
		o.probe = time.Duration(seconds) * time.Second / 4 / probeCount
	}
	return o
}

// churned says whether slice i runs beside the churn goroutine: always on
// local_reconfig. A traced run churns every fourth slice of the other
// workloads too, so that every workload prices the reconfiguration layers.
func (o runOpts) churned(i int) bool {
	return o.w.churnAll || (o.trace && i%4 == 3)
}

func run(o runOpts) (result, error) {
	res := result{Workload: o.w.name, Trace: o.trace, Metrics: map[string]metric{}}
	if runtime.GOMAXPROCS(0) != 1 {
		return res, errors.New("GOMAXPROCS is not 1: at more than one P every goroutine hop may or may not wake an idle P, and the numbers stop repeating")
	}
	res.Env = env{GOMAXPROCS: 1, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit(), Seed: o.seed,
		Slices: o.slices, SliceSeconds: o.sliceLen.Seconds(), Transport: "loopback TCP"}

	// Set-up, several times over: the median is what is reported, the last
	// system built is the one under test.
	seq := keySequence(o.seed)
	var (
		s      *session
		builds []time.Duration // Load or StartCluster, and Start
		setups []time.Duration // the build, handle compile and the first calls
	)
	for i := 0; i < o.builds; i++ {
		if s != nil {
			s.rig.close()
		}
		var err error
		if s, err = open(o.w, seq); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		builds, setups = append(builds, s.built), append(setups, s.ready)
	}
	defer s.rig.close()
	runtime.GC() // the discarded set-ups are not this run's garbage
	if err := s.warm(o.warm); err != nil {
		return res, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(s)
	}
	var all []slice
	for i := 0; i < o.slices; i++ {
		var batch func(int)
		if tr != nil {
			batch = tr.begin(i%2 == 1)
		}
		sl, err := s.measure(o.sliceLen, o.churned(i), batch)
		if err != nil {
			res.Attempted, res.Failed = s.ok+s.failed, s.failed
			return res, fmt.Errorf("slice %d: %w", i, err)
		}
		sl.traced = tr != nil && tr.on
		all = append(all, sl)
	}
	if tr != nil {
		tr.end()
	}

	res.Attempted, res.Failed = s.ok+s.failed, s.failed
	var calls, rounds []int
	for _, sl := range all {
		calls = append(calls, sl.calls)
		if sl.churned {
			rounds = append(rounds, len(sl.rounds))
		}
		res.Slices = append(res.Slices, sliceStat{Churned: sl.churned, Traced: sl.traced, Calls: sl.calls,
			P50: sl.p50, P99: sl.p99, CPU: sl.cpu, Allocs: sl.allocs, Bytes: sl.bytes, Rounds: len(sl.rounds),
			RoundP50: median(roundTimes(sl.rounds)), BlackoutP50: median(sl.blackouts)})
	}
	res.Env.CallsPerSlice, res.Env.RoundsPerSlice = median(calls), median(rounds)
	res.Notes = append(res.Notes, fmt.Sprintf("fail_ratio %g 1 (%d failed of %d attempted)",
		float64(s.failed)/float64(s.ok+s.failed), s.failed, s.ok+s.failed))
	res.Notes = append(res.Notes, churnNotes(all)...)
	res.Notes = append(res.Notes, fmt.Sprintf("spans_lost %d count (ungated)", s.rig.spansLost()))
	if err := s.check(); err != nil {
		return res, err
	}
	res.Correct = true
	if o.trace {
		return res, layers(&res, o, s, tr, all, builds)
	}

	put := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.name == name {
				res.Metrics[name] = metric{v, d.unit}
				return
			}
		}
		panic("undeclared metric " + name)
	}
	over := func(stat func(slice) float64) float64 {
		vs := make([]float64, len(all))
		for i, sl := range all {
			vs[i] = stat(sl)
		}
		return floor(vs)
	}
	put("setup_s", median(setups)/1e9)
	put("call_p50_us", over(func(sl slice) float64 { return sl.p50 })/1e3)
	put("cpu_us_per_call", over(func(sl slice) float64 { return sl.cpu })/1e3)
	put("allocs_per_call", over(func(sl slice) float64 { return sl.allocs }))
	put("bytes_per_call", over(func(sl slice) float64 { return sl.bytes }))
	res.Notes = append(res.Notes, fmt.Sprintf("call_p99_us %.3f us (floor of %d slices of %.0f calls, ungated)",
		over(func(sl slice) float64 { return sl.p99 })/1e3, len(all), res.Env.CallsPerSlice))
	return res, nil
}

// floor reduces one statistic's per-slice values to the figure a run
// reports: the median of the lowest eighth. What the box does beside the
// benchmark only ever adds time, in bursts that last from one slice to
// minutes, during which most slices read half as slow again: the median of
// all slices moved by a third between runs of the same code, while the
// fastest slices repeat to a percent. A change to the program moves every
// slice, the fastest too.
func floor(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	return median(s[:(len(s)+7)/8])
}

func roundTimes(rounds []round) []time.Duration {
	out := make([]time.Duration, len(rounds))
	for i, rd := range rounds {
		out[i] = rd.end - rd.start
	}
	return out
}

// pooledRounds gathers, over every churned slice, what each round took and
// the longest call that overlapped it.
func pooledRounds(all []slice) (took []time.Duration, blackouts []float64) {
	for _, sl := range all {
		took, blackouts = append(took, roundTimes(sl.rounds)...), append(blackouts, sl.blackouts...)
	}
	return took, blackouts
}

// churnNotes reports what a churn round cost and how well the churn
// goroutine kept its 10 ms schedule: a late round is a round the caller's
// traffic delayed.
func churnNotes(all []slice) []string {
	var late []time.Duration
	for _, sl := range all {
		for _, rd := range sl.rounds {
			late = append(late, rd.late)
		}
	}
	if len(late) == 0 {
		return nil
	}
	took, blackouts := pooledRounds(all)
	return []string{
		fmt.Sprintf("reconfig_p50_us %.3f us, blackout_p50_us %.3f us (medians of %d rounds, ungated)",
			median(took)/1e3, median(blackouts)/1e3, len(took)),
		fmt.Sprintf("churn_late_p50_us %.1f us (max %.1f us over %d rounds on a %v schedule)",
			median(late)/1e3, float64(slices.Max(late))/1e3, len(late), churnPeriod),
	}
}

// check holds the run to the invariants a correct platform keeps: Store
// served exactly the calls that succeeded, with its counter carried
// through every state-transferring swap; the buses conserve messages; no
// reply waiter leaked. Lost spans are reported, not held against the run:
// the recorder drops by design a span whose ring slot is still claimed, and
// at one P that happens a few times a run (see README.md).
func (s *session) check() error {
	err := s.rig.quiescent()
	if served, serr := s.rig.servedByStore(); serr != nil {
		err = errors.Join(err, serr)
	} else if served != int64(s.ok) {
		err = errors.Join(err, fmt.Errorf("Store served %d calls, callers completed %d", served, s.ok))
	}
	if s.failed != 0 {
		err = errors.Join(err, fmt.Errorf("%d calls failed, first: %v", s.failed, s.firstErr))
	}
	return err
}
