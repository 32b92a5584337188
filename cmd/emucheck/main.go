// Command emucheck is the multi-experiment testbed driver: it loads
// declarative scenario files (fleet of experiments + timed events +
// assertions), validates them, and replays them deterministically on a
// simulated Emulab cluster with a preemptive swap scheduler.
//
// Usage:
//
//	emucheck validate <scenario.json>
//	emucheck run [-json] [-junit file] [-parallel N] <scenario.json>
//
// Example scenarios live in examples/scenarios/ and are documented in
// docs/scenarios.md. run exits nonzero when any scenario assertion
// fails, so scripted scenarios double as integration checks. The
// multi-tenancy benchmark comparing incremental, full-copy and
// stateless swapping is `benchrunner -table timeshare`.
//
// Scenario files with a "search" stanza run the state-search engine:
// one experiment is checkpointed, forked into a gang-admitted branch
// fan-out sharing its checkpoint prefix by reference, and the report
// includes each branch's explored outcome (see
// examples/scenarios/search.json and docs/branching.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"emucheck/internal/scenario"
	"emucheck/internal/suite"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: emucheck <command> [flags] [args]

commands:
  validate <scenario.json>   check a scenario file without running it
  run [-json] [-junit file] [-parallel N] <scenario.json>
                             replay a scenario and evaluate its assertions;
                             -junit additionally runs it under the suite's
                             shared invariants and writes JUnit XML, with
                             the run + replay pair executed on up to
                             -parallel workers (report unchanged)
`)
	os.Exit(2)
}

func loadFile(path string) *scenario.File {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emucheck:", err)
		os.Exit(1)
	}
	f, err := scenario.Parse(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emucheck:", err)
		os.Exit(1)
	}
	return f
}

func cmdValidate(args []string) {
	if len(args) != 1 {
		usage()
	}
	f := loadFile(args[0])
	if errs := scenario.Validate(f); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "invalid:", e)
		}
		os.Exit(1)
	}
	fmt.Printf("%s: ok (%d experiments, %d events, %d assertions)\n",
		f.Name, len(f.Experiments), len(f.Events), len(f.Assertions))
}

// junitReport runs one scenario under the suite's shared invariants
// and renders the single-case JUnit XML the -junit flag writes. It
// reuses the suite's writer so emucheck and emusuite emit the same
// format for the same run. workers bounds how many of the scenario's
// two executions (run + replay-digest re-run) proceed concurrently.
func junitReport(f *scenario.File, source string, workers int) ([]byte, suite.RunReport, error) {
	rr := suite.RunOneParallel(f, source, workers)
	rep := &suite.Report{Schema: suite.Schema, Runs: []suite.RunReport{rr}}
	if rr.Pass {
		rep.Passed = 1
	} else {
		rep.Failed = 1
	}
	data, err := rep.JUnit("emucheck")
	return data, rr, err
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	junitPath := fs.String("junit", "", "run under the suite invariants and write JUnit XML to this file")
	parallel := fs.Int("parallel", 0, "with -junit: max concurrent executions of the run + replay pair (0 = GOMAXPROCS, 1 = serial)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	var res *scenario.Result
	if *junitPath != "" {
		// The suite runner replays the scenario for its determinism
		// invariant, so the JUnit verdict covers more than the plain run.
		data, rr, err := junitReport(loadFile(fs.Arg(0)), fs.Arg(0), *parallel)
		if err == nil {
			err = os.WriteFile(*junitPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "emucheck:", err)
			os.Exit(1)
		}
		if rr.Error != "" {
			fmt.Fprintln(os.Stderr, "emucheck:", rr.Error)
			os.Exit(1)
		}
		res = rr.Result
		res.Pass = rr.Pass // fold invariant failures into the exit code
	} else {
		var err error
		res, err = scenario.Run(loadFile(fs.Arg(0)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "emucheck:", err)
			os.Exit(1)
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "emucheck:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(res.Render())
	}
	if !res.Pass {
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "validate":
		cmdValidate(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	default:
		usage()
	}
}
