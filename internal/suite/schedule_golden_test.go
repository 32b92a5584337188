package suite

import (
	"fmt"
	"path/filepath"
	"testing"

	"emucheck/internal/scenario"
	"emucheck/internal/scengen"
)

// TestScheduleDigestsMatchGolden pins the simulator's event schedule,
// not just the rounded report, for every shipped example scenario and
// every scenario of the 48-scenario generated matrix at seed 1: each
// must reproduce the schedule digest recorded in
// testdata/schedules.golden. A change that moves, adds or removes one
// event, or breaks a same-instant tie differently, fails here even when
// every report digest in digests.golden still agrees. Federation
// scenarios are excluded: they run one simulator per facility and
// RunWithCluster returns no cluster for them, so there is no single
// schedule to pin; their report digests stay pinned in digests.golden.
func TestScheduleDigestsMatchGolden(t *testing.T) {
	want := readGolden(t, filepath.Join("testdata", "schedules.golden"))
	files, paths := loadExamples(t)
	keys := make([]string, len(files))
	for i, p := range paths {
		keys[i] = "examples/scenarios/" + filepath.Base(p)
	}
	for _, f := range scengen.Matrix(1, 48) {
		files = append(files, f)
		keys = append(keys, f.Name)
	}
	got := make(map[string]string)
	for i, f := range files {
		if f.Federation != nil {
			continue
		}
		_, c, err := scenario.RunWithCluster(f)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		d := fmt.Sprintf("%016x", c.S.ScheduleDigest())
		got[keys[i]] = d
		w, ok := want[keys[i]]
		switch {
		case !ok:
			t.Errorf("%s: no pinned schedule digest (got %s)", keys[i], d)
		case d != w:
			t.Errorf("%s: schedule digest %s, pinned %s", keys[i], d, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer run", key)
		}
	}
}
