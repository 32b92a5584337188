package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// ran is one experiment with its seed-1 result.
type ran struct {
	experiment
	result renderer
}

var (
	runOnce sync.Once
	runs    []ran
)

// seed1 runs every experiment once per test binary, at seed 1. The
// golden, schema and fidelity tests all read this one run.
func seed1() []ran {
	runOnce.Do(func() {
		for _, e := range experiments(1) {
			runs = append(runs, ran{e, e.run()})
		}
	})
	return runs
}

// TestPaperRowsMatchGolden pins every figure and table exactly as
// `benchrunner -all` prints them at seed 1 to
// testdata/paper_rows.golden. The figures carry the packet path (iperf
// through a delay node, many TCP streams through checkpoints) and copies
// across a stateful swap; the tables carry the swap pipeline, the
// multi-tenant scheduler, branching, remediation and tiered storage. A
// change that moves any packet's delivery time or any transfer's
// completion shows up here as a changed row. Regenerate deliberately
// with `go test ./cmd/benchrunner -update` when a row is meant to move.
func TestPaperRowsMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, r := range seed1() {
		b.WriteString(r.section(r.result))
	}
	path := filepath.Join("testdata", "paper_rows.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("paper rows differ from %s:\n%s\nwant:\n%s", path, got, want)
	}
}
