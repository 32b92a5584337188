// Command benchrunner regenerates the figures and tables of the paper's
// evaluation (§7) and prints paper-vs-measured rows.
//
// Usage:
//
//	benchrunner -all
//	benchrunner -fig 6
//	benchrunner -table swap
//	benchrunner -fig 4 -seed 7
//	benchrunner -all -json > bench.json
//
// Each experiment runs at the paper's size and is deterministic for a
// given seed. -json emits one object keyed by figure/table name with
// the measured scalar results, for machine-readable tracking across
// revisions.
// Every table measures simulated time only; host performance (wall
// clock, allocations, parallel speedup) is emubench's job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"emucheck/internal/evalrun"
)

func main() {
	var (
		fig    = flag.Int("fig", 0, "figure number to regenerate (4-9)")
		table  = flag.String("table", "", "table to regenerate: swap | freeblock | sync | dom0 | ablation | timeshare | branch | remediate | storage")
		all    = flag.Bool("all", false, "regenerate everything")
		seed   = flag.Int64("seed", 1, "simulation seed")
		asJSON = flag.Bool("json", false, "emit results as JSON instead of tables")
	)
	flag.Parse()

	results := make(map[string]any)
	ran := false
	for _, e := range experiments(*seed) {
		picked := (e.fig != 0 && e.fig == *fig) || (e.table != "" && e.table == *table)
		if !*all && !picked {
			continue
		}
		ran = true
		r := e.run()
		results[e.key] = r
		if !*asJSON {
			fmt.Print(e.section(r))
		}
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *asJSON {
		out, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

// renderer is a figure or table result.
type renderer interface{ Render() string }

// experiment is one figure or table benchrunner can regenerate: a
// figure has its number in fig, a table its -table name in table.
type experiment struct {
	key, title string
	fig        int
	table      string
	run        func() renderer
}

// section formats r the way the CLI prints it.
func (e experiment) section(r renderer) string {
	return fmt.Sprintf("== %s ==\n%s\n", e.title, r.Render())
}

// experiments lists everything -all regenerates, in print order.
func experiments(seed int64) []experiment {
	fig := func(n int, f func() renderer) experiment {
		return experiment{key: fmt.Sprintf("fig%d", n), title: fmt.Sprintf("Figure %d", n), fig: n, run: f}
	}
	tab := func(name, title string, f func() renderer) experiment {
		return experiment{key: name, title: title, table: name, run: f}
	}
	return []experiment{
		fig(4, func() renderer { return evalrun.Fig4(seed) }),
		fig(5, func() renderer { return evalrun.Fig5(seed) }),
		fig(6, func() renderer { return evalrun.Fig6(seed) }),
		fig(7, func() renderer { return evalrun.Fig7(seed) }),
		fig(8, func() renderer { return evalrun.Fig8(seed) }),
		fig(9, func() renderer { return evalrun.Fig9(seed) }),
		tab("swap", "Stateful swapping (§7.2)", func() renderer { return evalrun.SwapTable(seed) }),
		tab("freeblock", "Free-block elimination (§5.1)", func() renderer { return evalrun.FreeBlockTable(seed) }),
		tab("sync", "Checkpoint synchronization (§4.3)", func() renderer { return evalrun.SyncTable(seed) }),
		tab("dom0", "Dom0 interference (§7.1)", func() renderer { return evalrun.Dom0Jobs(seed) }),
		tab("ablation", "Ablation: delay-node capture (§4.4)", func() renderer { return evalrun.AblationDelayNode(seed) }),
		tab("timeshare", "Multi-tenancy: incremental vs full-copy vs stateless swapping", func() renderer { return evalrun.Timeshare(seed) }),
		tab("branch", "Branch fan-out: shared-lineage vs naive per-branch full copies", func() renderer { return evalrun.BranchTable(seed) }),
		tab("remediate", "Unattended remediation: health-loop policies vs scripted recovery vs restart", func() renderer { return evalrun.Remediate(seed) }),
		tab("storage", "Tiered chain storage: cached vs uncached restores at fan-out", func() renderer { return evalrun.StorageTable(seed) }),
	}
}
