package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emucheck/internal/evalrun"
)

// TestPaperRowsMatchGolden pins the Fig 6, 7 and 9 tables exactly as
// `benchrunner -fig N -quick` prints them at seed 1 to
// testdata/paper_rows.golden. The three figures carry the packet path
// (iperf through a delay node), many TCP streams through checkpoints,
// and copies across a stateful swap, so a change that moves any packet's
// delivery time shows up here as a changed row. Regenerate deliberately
// with `go test ./cmd/benchrunner -update` when a row is meant to move.
func TestPaperRowsMatchGolden(t *testing.T) {
	sz := sizesFor(true)
	var b strings.Builder
	for _, f := range []struct {
		n int
		r interface{ Render() string }
	}{
		{6, evalrun.Fig6(1)},
		{7, evalrun.Fig7(1, sz.fileMB7)},
		{9, evalrun.Fig9(1, sz.copyMB9)},
	} {
		fmt.Fprintf(&b, "== Figure %d ==\n%s\n", f.n, f.r.Render())
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
