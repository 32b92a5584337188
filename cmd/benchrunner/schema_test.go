package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emucheck/internal/evalrun"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// benchSchema maps every figure/table key benchrunner can emit to the
// result type marshaled under it. Adding an output to main() without
// registering it here (and refreshing the golden with -update) fails
// the shape test.
var benchSchema = map[string]any{
	"fig4":      &evalrun.Fig4Result{},
	"fig5":      &evalrun.Fig5Result{},
	"fig6":      &evalrun.Fig6Result{},
	"fig7":      &evalrun.Fig7Result{},
	"fig8":      &evalrun.Fig8Result{},
	"fig9":      &evalrun.Fig9Result{},
	"swap":      &evalrun.SwapTableResult{},
	"freeblock": &evalrun.FreeBlockResult{},
	"sync":      &evalrun.SyncResult{},
	"dom0":      &evalrun.Dom0JobsResult{},
	"ablation":  &evalrun.AblationResult{},
	"timeshare": &evalrun.TimeshareResult{},
	"branch":    &evalrun.BranchResult{},
	"remediate": &evalrun.RemediateResult{},
	"storage":   &evalrun.StorageResult{},
}

// fieldPaths flattens a type into "path: kind" lines, honoring json
// tags, so any rename, removal, or retyping of a marshaled field shows
// up as a schema diff.
func fieldPaths(prefix string, t reflect.Type, out *[]string) {
	switch t.Kind() {
	case reflect.Ptr:
		fieldPaths(prefix, t.Elem(), out)
	case reflect.Slice, reflect.Array:
		fieldPaths(prefix+"[]", t.Elem(), out)
	case reflect.Map:
		fieldPaths(prefix+"{}", t.Elem(), out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported: not marshaled
			}
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "-" {
				continue
			}
			name := tag
			if name == "" {
				name = f.Name
			}
			p := name
			if prefix != "" {
				p = prefix + "." + name
			}
			fieldPaths(p, f.Type, out)
		}
	default:
		*out = append(*out, fmt.Sprintf("%s: %s", prefix, t.Kind()))
	}
}

// TestBenchJSONGoldenShape pins the BENCH_*.json schema: the flattened
// field paths of every emitted result type must match the committed
// golden. Regenerate deliberately with `go test ./cmd/benchrunner
// -update` when the schema is meant to change.
func TestBenchJSONGoldenShape(t *testing.T) {
	keys := make([]string, 0, len(benchSchema))
	for k := range benchSchema {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lines []string
	for _, k := range keys {
		var paths []string
		fieldPaths(k, reflect.TypeOf(benchSchema[k]), &paths)
		sort.Strings(paths)
		lines = append(lines, paths...)
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "bench_schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("BENCH json schema drifted from %s.\nIf intentional, regenerate with -update and note the change.\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
