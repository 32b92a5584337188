package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// addCPUProfile reads the CPU profile at path with the Go toolchain's
// pprof (`go tool pprof -top`) and adds each function's self (flat)
// time, in nanoseconds, to the bucket of the function's package.
func addCPUProfile(path string, into map[string]int64) error {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ns", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return addTop(out, into)
}

// addTop parses `pprof -top -unit=ns` output. After the header, each
// row reads "flat flat% sum% cum cum% function [(inline)]", with flat
// either 0 or a count of nanoseconds such as "10000000ns".
func addTop(out []byte, into map[string]int64) error {
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := true
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if header {
			header = len(f) == 0 || f[0] != "flat"
			continue
		}
		if len(f) < 6 {
			return fmt.Errorf("pprof -top: bad row %q", sc.Text())
		}
		ns, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
		if err != nil {
			return fmt.Errorf("pprof -top: bad flat time in %q", sc.Text())
		}
		into[bucketOf(f[5])] += ns
	}
	if header {
		return fmt.Errorf("pprof -top: no table in output")
	}
	return sc.Err()
}

// bucketOf maps a profiled function name, such as
// "emucheck/internal/sim.(*Simulator).Step", to its cpuBuckets entry.
func bucketOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "emucheck":
		return "emucheck"
	case strings.HasPrefix(pkg, "emucheck/internal/"):
		p := strings.TrimPrefix(pkg, "emucheck/internal/")
		for _, b := range cpuBuckets {
			if b == p {
				return b
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}
