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
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

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
// field paths of the result every experiment emits under its key must
// match the committed golden. Regenerate deliberately with `go test ./cmd/benchrunner
// -update` when the schema is meant to change.
func TestBenchJSONGoldenShape(t *testing.T) {
	runs := append([]ran(nil), seed1()...)
	sort.Slice(runs, func(i, j int) bool { return runs[i].key < runs[j].key })
	var lines []string
	for _, r := range runs {
		var paths []string
		fieldPaths(r.key, reflect.TypeOf(r.result), &paths)
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
