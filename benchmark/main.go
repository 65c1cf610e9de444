// Command benchmark is the platform's performance ledger: four closed-loop
// workloads, their end-to-end metrics as medians of slices on one P, and a
// traced run that attributes a call to the layers it crosses. BENCHMARK.json
// at the repository root names the metrics and their bounds; README.md here
// says why each workload and metric exists.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four, each in its own process, end to end and traced")
		seed    = flag.Int64("seed", 1, "seed of the key sequence")
		seconds = flag.Int("seconds", 28, "seconds to measure for")
		trace   = flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics")
		runs    = flag.Int("runs", 0, "make this many end-to-end runs of each workload, on consecutive seeds, and write them to -out")
		out     = flag.String("out", "", "file the -runs set is written to")
		aa      = flag.Int("aa", 0, "make two alternated sets of this many runs of the current tree and compare them")
		compare = flag.Bool("compare", false, "compare two sets: -compare A.json B.json")
	)
	flag.Parse()
	// One P: see README.md, "Why one P". Set here rather than asked of the
	// environment, so a run cannot be made without it.
	runtime.GOMAXPROCS(1)
	if err := dispatch(*name, *seed, *seconds, *trace == 1, *runs, *out, *aa, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed int64, seconds int, trace bool, runs int, out string, aa int, compare bool) error {
	names := []string{name}
	if name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two set files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case aa > 0:
		return aaCheck(names, aa, seed, seconds)
	case runs > 0:
		if out == "" {
			return errors.New("-runs needs -out")
		}
		set, err := collect(names, runs, seed, seconds)
		if err != nil {
			return err
		}
		return writeJSON(out, set)
	case name == "":
		for _, n := range names {
			for _, t := range []int{0, 1} {
				if _, err := spawn(os.Stdout, n, seed, seconds, t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("no workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	o := fromSeconds(w, seed, seconds, trace)
	file := w.name
	if trace {
		o.spanFile = filepath.Join(outDir, "trace-"+w.name+".json")
		file += "-layers"
	}
	res, err := run(o)
	report(os.Stdout, res)
	if werr := writeJSON(filepath.Join(outDir, file+".json"), res); err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// repoRoot finds the checkout's root from where the benchmark may be
// started: the root itself, or this directory.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: start the benchmark from the repository root or from benchmark/")
}

// report prints the environment as comments and every metric as
// "name value unit".
func report(w io.Writer, res result) {
	e := res.Env
	fmt.Fprintf(w, "# workload %s seed %d trace %v commit %s\n", res.Workload, e.Seed, res.Trace, e.Commit)
	fmt.Fprintf(w, "# GOMAXPROCS %d NumCPU %d %s %s/%s transport %q\n", e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.GOOS, e.GOARCH, e.Transport)
	fmt.Fprintf(w, "# %d slices of %g s, %.0f calls per slice, %.0f rounds per churned slice\n",
		e.Slices, e.SliceSeconds, e.CallsPerSlice, e.RoundsPerSlice)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %s\n", n, strconv.FormatFloat(res.Metrics[n].Value, 'g', -1, 64), res.Metrics[n].Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setRun is one run as a set file keeps it.
type setRun struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Metrics  map[string]metric `json:"metrics"`
}

// spawn makes one run in a fresh process of this same binary, as the driver
// does, so runs share no heap and no warmed-up state. The child's report is
// copied to echo; its result line is parsed.
func spawn(echo io.Writer, workload string, seed int64, seconds, trace int) (setRun, error) {
	run := setRun{Workload: workload, Seed: seed}
	exe, err := os.Executable()
	if err != nil {
		return run, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	if err := cmd.Run(); err != nil {
		return run, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		last = slices.Clone(sc.Bytes())
	}
	return run, json.Unmarshal(last, &run)
}

// collect makes n end-to-end runs of each workload on consecutive seeds.
func collect(names []string, n int, seed int64, seconds int) ([]setRun, error) {
	var set []setRun
	for _, name := range names {
		for i := 0; i < n; i++ {
			r, err := spawn(io.Discard, name, seed+int64(i), seconds, 0)
			if err != nil {
				return set, err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", name, r.Seed)
			set = append(set, r)
		}
	}
	return set, nil
}
