package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// inRepoRoot runs the rest of the test from the repository root, where
// the smoke test finds ./cmd/tagseval and ./cmd/pepad.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"positional"}} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("servesmoke %v: exit %d, want 2", args, code)
		}
	}
}

func TestUnknownFigureFails(t *testing.T) {
	inRepoRoot(t)
	code, _, stderr := runCLI(t, "-fig", "no-such-figure", "-dir", t.TempDir())
	if code != 1 || !strings.Contains(stderr, "spec-dump no-such-figure") {
		t.Fatalf("exit %d, stderr %q; want 1 and the spec-dump error", code, stderr)
	}
}

// TestSmoke runs the whole daemon lifecycle: build, submit, poll,
// fetch the table, drain and validate the job manifest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pepad binary")
	}
	inRepoRoot(t)
	code, stdout, stderr := runCLI(t)
	if code != 0 || !strings.HasSuffix(stdout, "servesmoke: ok\n") {
		t.Fatalf("exit %d, want 0 and the ok line; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
