package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutput runs the example and checks that it prints TAG beating
// the shortest queue under heavy tails.
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
	if want := "<- TAG beats SQ"; !strings.Contains(string(out), want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}
