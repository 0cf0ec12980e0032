package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutput runs the example and checks that it prints the
// introduction's optimal timeout.
func TestOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	f.Close()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "15.6667   15.67 (optimal)"; !strings.Contains(string(out), want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}
