package emucheck

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlySimImportsMathRand keeps seeded random sources in one
// package: everywhere else, draws come from the simulator's source or
// from counter-based sim.Mix64 keys, so no draw depends on how many
// were made before it.
func TestOnlySimImportsMathRand(t *testing.T) {
	sim := filepath.Join("internal", "sim")
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "emubench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == sim {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"math/rand`) {
				t.Errorf("%s imports %s", path, imp.Path.Value)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
