// Command benchrunner regenerates the figures and tables of the paper's
// evaluation (§7) and prints paper-vs-measured rows.
//
// Usage:
//
//	benchrunner -all
//	benchrunner -fig 6
//	benchrunner -table swap
//	benchrunner -fig 4 -seed 7 -quick
//	benchrunner -all -quick -json > bench.json
//
// Each experiment is deterministic for a given seed; -quick shrinks the
// workloads (fewer iterations, smaller files) for a fast sanity pass.
// -json emits one object keyed by figure/table name with the measured
// scalar results, for machine-readable tracking across revisions.
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
		quick  = flag.Bool("quick", false, "reduced workload sizes")
		fanout = flag.Int("fanout", 4, "branch table fan-out")
		asJSON = flag.Bool("json", false, "emit results as JSON instead of tables")
	)
	flag.Parse()

	results := make(map[string]any)
	ran := false
	for _, e := range experiments(*seed, *quick, *fanout) {
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

// sizes are the figure workload sizes.
type sizes struct {
	iters4, iters5            int
	fileMB7, fileMB8, copyMB9 int64
}

// sizesFor returns the full sizes, or the reduced ones of -quick.
func sizesFor(quick bool) sizes {
	if quick {
		return sizes{iters4: 1500, iters5: 150, fileMB7: 512, fileMB8: 256, copyMB9: 256}
	}
	// fileMB7 is the paper's 3 GB torrent.
	return sizes{iters4: 6000, iters5: 600, fileMB7: 3 << 10, fileMB8: 512, copyMB9: 512}
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
func experiments(seed int64, quick bool, fanout int) []experiment {
	sz := sizesFor(quick)
	ticksTS := int64(0) // timeshare default: 900 ticks per tenant
	// ticksTS stays at the default under -quick: a shorter target parks
	// each tenant at most once, and a first swap-out is always a full
	// save, which would erase the incremental-vs-full comparison the
	// timeshare table exists to show.
	fig := func(n int, f func() renderer) experiment {
		return experiment{key: fmt.Sprintf("fig%d", n), title: fmt.Sprintf("Figure %d", n), fig: n, run: f}
	}
	tab := func(name, title string, f func() renderer) experiment {
		return experiment{key: name, title: title, table: name, run: f}
	}
	return []experiment{
		fig(4, func() renderer { return evalrun.Fig4(seed, sz.iters4) }),
		fig(5, func() renderer { return evalrun.Fig5(seed, sz.iters5) }),
		fig(6, func() renderer { return evalrun.Fig6(seed) }),
		fig(7, func() renderer { return evalrun.Fig7(seed, sz.fileMB7) }),
		fig(8, func() renderer { return evalrun.Fig8(seed, sz.fileMB8) }),
		fig(9, func() renderer { return evalrun.Fig9(seed, sz.copyMB9) }),
		tab("swap", "Stateful swapping (§7.2)", func() renderer { return evalrun.SwapTable(seed) }),
		tab("freeblock", "Free-block elimination (§5.1)", func() renderer { return evalrun.FreeBlockTable(seed) }),
		tab("sync", "Checkpoint synchronization (§4.3)", func() renderer { return evalrun.SyncTable(seed) }),
		tab("dom0", "Dom0 interference (§7.1)", func() renderer { return evalrun.Dom0Jobs(seed) }),
		tab("ablation", "Ablation: delay-node capture (§4.4)", func() renderer { return evalrun.AblationDelayNode(seed) }),
		tab("timeshare", "Multi-tenancy: incremental vs full-copy vs stateless swapping", func() renderer { return evalrun.Timeshare(seed, ticksTS) }),
		tab("branch", "Branch fan-out: shared-lineage vs naive per-branch full copies", func() renderer { return evalrun.BranchTable(seed, fanout) }),
		tab("remediate", "Unattended remediation: health-loop policies vs scripted recovery vs restart", func() renderer { return evalrun.Remediate(seed, quick) }),
		tab("storage", "Tiered chain storage: cached vs uncached restores at fan-out", func() renderer { return evalrun.StorageTable(seed, fanout) }),
	}
}
