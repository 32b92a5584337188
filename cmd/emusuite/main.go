// Command emusuite runs a scenario corpus under the suite runner's
// shared invariants: either a directory of scenario files or a
// deterministic generated matrix (see internal/scengen). Every run is
// checked for same-seed replay determinism, leaked pool hardware,
// chain-store refcount drift, control-LAN delivery conservation,
// orphaned health-loop cordons, and negative accounting ledgers — on
// top of the scenario's own assertions.
//
// Usage:
//
//	emusuite [-seed N] [-count M] [-dir path] [-parallel N] [-json] [-junit file] [-gen-out dir]
//
// With -dir, every *.json under the directory runs; otherwise a
// generated matrix of -count scenarios keyed by -seed runs. -parallel
// bounds the worker pool running scenario executions concurrently
// (default GOMAXPROCS, 1 forces serial); the emitted report is
// byte-identical at any setting, so parallelism only moves the wall
// clock. -json emits the corpus report (schema emusuite/v1, no
// wall-clock fields: two same-seed invocations are byte-identical).
// -junit writes JUnit XML whose time attributes are simulated seconds.
// -gen-out writes the generated corpus as scenario files and exits
// without running, so a failing generated scenario can be reproduced
// under emucheck alone. Exits nonzero when any run fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"emucheck/internal/scenario"
	"emucheck/internal/scengen"
	"emucheck/internal/suite"
)

// loadDir parses every scenario file under dir, sorted by path so the
// corpus order (and therefore the report) is deterministic.
func loadDir(dir string) ([]*scenario.File, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no scenario files under %s", dir)
	}
	var files []*scenario.File
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		f, err := scenario.Parse(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", p, err)
		}
		files = append(files, f)
	}
	return files, paths, nil
}

// writeCorpus materializes the generated matrix as scenario files.
func writeCorpus(w io.Writer, dir string, seed int64, count int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range scengen.Matrix(seed, count) {
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, f.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, path)
	}
	return nil
}

// cli is the whole command behind a testable seam: args excludes the
// program name, output goes to the given writers, and the return value
// is the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emusuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "generator seed for the scenario matrix")
	count := fs.Int("count", 24, "generated matrix size")
	dir := fs.String("dir", "", "run every *.json scenario under this directory instead of generating")
	asJSON := fs.Bool("json", false, "emit the corpus report as JSON (schema emusuite/v1)")
	junitPath := fs.String("junit", "", "write JUnit XML to this file")
	genOut := fs.String("gen-out", "", "write the generated corpus as scenario files to this directory and exit")
	parallel := fs.Int("parallel", 0, "max concurrent scenario executions (0 = GOMAXPROCS, 1 = serial); the report is byte-identical at any setting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *count < 0 {
		fmt.Fprintf(stderr, "emusuite: -count must be non-negative, got %d\n", *count)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "emusuite:", err)
		return 1
	}

	if *genOut != "" {
		if err := writeCorpus(stdout, *genOut, *seed, *count); err != nil {
			return fail(err)
		}
		return 0
	}

	var rep *suite.Report
	if *dir != "" {
		files, paths, err := loadDir(*dir)
		if err != nil {
			return fail(err)
		}
		rep = suite.RunFiles(files, paths, *parallel)
	} else {
		rep = suite.RunMatrix(*seed, *count, *parallel)
	}

	if *junitPath != "" {
		data, err := rep.JUnit("emusuite")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*junitPath, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprint(stdout, rep.Render())
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}
