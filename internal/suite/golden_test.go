package suite

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDigestsMatchGolden pins the simulated schedule: every shipped
// example scenario and the 48-scenario generated matrix at seed 1 (all
// eight shapes) must reproduce the report digests recorded in
// testdata/digests.golden. A refactor that moves any event — even an
// equal-time tie-break — changes a digest and fails here. A deliberate
// model change re-pins the file and says why in CHANGES.md.
func TestDigestsMatchGolden(t *testing.T) {
	want := readGolden(t, filepath.Join("testdata", "digests.golden"))
	got := make(map[string]string)
	var order []string
	files, paths := loadExamples(t)
	for i, rr := range RunFiles(files, paths, 0).Runs {
		key := "examples/scenarios/" + filepath.Base(paths[i])
		got[key] = rr.Digest
		order = append(order, key)
	}
	for _, rr := range RunMatrix(1, 48, 0).Runs {
		got[rr.Name] = rr.Digest
		order = append(order, rr.Name)
	}
	for _, key := range order {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no pinned digest (got %s)", key, got[key])
			continue
		}
		if got[key] != w {
			t.Errorf("%s: digest %s, pinned %s", key, got[key], w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer run", key)
		}
	}
}

// readGolden parses "<key> <digest>" lines.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
