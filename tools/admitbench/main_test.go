package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-loads", "0.5,x"},
		{"-loads", "-1"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("admitbench %v: exit %d, want 2", args, code)
		}
	}
}

// TestNoWarmJobs asserts that a calibration without warm jobs fails:
// the mean job size would be undefined.
func TestNoWarmJobs(t *testing.T) {
	code, _, stderr := runCLI(t, "-warm", "0", "-points", "1")
	if code != 1 || !strings.Contains(stderr, "no warm jobs") {
		t.Fatalf("exit %d, stderr %q; want 1 and the warm-job error", code, stderr)
	}
}

// TestMinimalRun drives one light load point end to end and checks
// that every submitted job is accounted for in the printed row.
func TestMinimalRun(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-jobs", "3", "-warm", "1", "-points", "1", "-loads", "0.5")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if !strings.HasPrefix(lines[0], "admitbench: Exp(1)-point jobs") || len(lines) != 4 {
		t.Fatalf("want the calibration line, a header and one load row:\n%s", stdout)
	}
	f := strings.Fields(lines[3])
	if len(f) != 10 {
		t.Fatalf("load row %q: want 10 columns", lines[3])
	}
	admitted, err1 := strconv.Atoi(f[3])
	rejected, err2 := strconv.Atoi(f[4])
	if err1 != nil || err2 != nil || admitted+rejected != 3 {
		t.Fatalf("load row %q: admitted + rejected != 3 jobs", lines[3])
	}
}
