package suite

import (
	"bytes"
	"encoding/json"
	"testing"
)

// marshalReport renders a corpus report exactly as cmd/emusuite -json
// does, so byte-comparison here proves what the CLI cmp check proves.
func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelMatrixByteIdenticalToSerial is the parallel runner's
// ordering-guarantee regression: the 24-scenario generated matrix must
// produce byte-identical emusuite/v1 JSON and JUnit XML at -parallel
// 1, 4, and 8. Workers only move the wall clock; the report has no
// field that can tell the difference.
func TestParallelMatrixByteIdenticalToSerial(t *testing.T) {
	serial := RunMatrix(1, 24, 1)
	if serial.Failed != 0 {
		t.Fatalf("serial matrix: %d failed\n%s", serial.Failed, serial.Render())
	}
	wantJSON := marshalReport(t, serial)
	wantJUnit, err := serial.JUnit("emusuite")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		par := RunMatrix(1, 24, workers)
		if got := marshalReport(t, par); !bytes.Equal(got, wantJSON) {
			t.Fatalf("workers=%d: JSON report differs from serial run", workers)
		}
		got, err := par.JUnit("emusuite")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJUnit) {
			t.Fatalf("workers=%d: JUnit report differs from serial run", workers)
		}
	}
}

// TestParallelExamplesByteIdenticalToSerial runs the shipped
// examples/scenarios corpus — the file-sourced path, exercising
// sources bookkeeping — at -parallel 1, 4, and 8 and requires
// byte-identical reports.
func TestParallelExamplesByteIdenticalToSerial(t *testing.T) {
	files, paths := loadExamples(t)
	serial := RunFiles(files, paths, 1)
	want := marshalReport(t, serial)
	for _, workers := range []int{4, 8} {
		par := RunFiles(files, paths, workers)
		if got := marshalReport(t, par); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: examples corpus report differs from serial run", workers)
		}
	}
}

// TestRunOneParallelMatchesRunOne pins the single-scenario path
// emucheck run -junit -parallel uses: concurrent run + replay must
// assemble the same RunReport as the serial pair.
func TestRunOneParallelMatchesRunOne(t *testing.T) {
	files, paths := loadExamples(t)
	f, src := files[0], paths[0]
	want, err := json.Marshal(RunOne(f, src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(RunOneParallel(f, src, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RunOneParallel report differs from RunOne:\n%s\nvs\n%s", got, want)
	}
}

// TestParallelDefaultWorkers checks the 0 = GOMAXPROCS default doesn't
// change the report either.
func TestParallelDefaultWorkers(t *testing.T) {
	want := marshalReport(t, RunMatrix(3, 6, 1))
	got := marshalReport(t, RunMatrix(3, 6, 0))
	if !bytes.Equal(got, want) {
		t.Fatal("default-worker report differs from serial run")
	}
}
