// Command aasbench regenerates every experiment (E1–E22) of DESIGN.md §3,
// the claim-to-experiment mapping. The paper is a position paper with no
// tables and one figure; each experiment quantifies one of its claims.
//
// Usage:
//
//	aasbench           run all experiments
//	aasbench -e E4     run one experiment (E1..E22)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	only := flag.String("e", "", "run a single experiment (E1..E22)")
	flag.Parse()

	exps := []experiment{
		{"E1", "Figure 1 live: connector-based reconfiguration and adaptation", runE1},
		{"E2", "connector overhead (\"induces a low overload\")", runE2},
		{"E3", "adaptation vs reconfiguration reaction cost", runE3},
		{"E4", "channel preservation across reconfiguration", runE4},
		{"E5", "strong reconfiguration: state transfer cost", runE5},
		{"E6", "deployment planning and migration closer to demand", runE6},
		{"E7", "feedback control of QoS under rush-hour load", runE7},
		{"E8", "filter/injector/meta-object interception scaling", runE8},
		{"E9", "LTS composition-correctness checking cost", runE9},
		{"E10", "FLO/C rule enforcement and cycle analysis", runE10},
		{"E11", "interface-modification compliance matrix", runE11},
		{"E12", "the ten adaptation approaches of §2, compared", runE12},
		{"E13", "sharded data-plane throughput under reconfiguration", runE13},
		{"E14", "region-scoped reconfiguration: disjoint traffic proceeds", runE14},
		{"E15", "compiled-pipeline interchange under load: no errors, no torn chains", runE15},
		{"E16", "distribution plane: cross-node calls under live migration churn", runE16},
		{"E17", "client bindings: async fan-out + cancellation storm during migration churn", runE17},
		{"E18", "typed handles: zero-alloc calls driven through live migration churn", runE18},
		{"E19", "goodput under open-loop overload: admission, EDF, expired-work shedding", runE19},
		{"E20", "server streaming: credit flow control vs the call-per-item floor", runE20},
		{"E21", "end-to-end tracing: span-tree reassembly under migration churn", runE21},
		{"E22", "elastic plane: seed-list join, warm-standby failover blackout, rebalance onto a fresh node", runE22},
	}
	sort.SliceStable(exps, func(i, j int) bool { return i < j })

	ran := 0
	for _, e := range exps {
		if *only != "" && e.id != *only {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		e.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "aasbench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
