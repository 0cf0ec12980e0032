package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// machine records what a traced run ran on, beside the computed flop
// and byte figures.
type machine struct {
	CPU        string `json:"cpu"`
	LLCBytes   int64  `json:"llc_bytes"` // 0 when unknown
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (m machine) String() string {
	llc := "unknown"
	if m.LLCBytes > 0 {
		llc = fmt.Sprintf("%d KiB", m.LLCBytes>>10)
	}
	return fmt.Sprintf("cpu %q, last-level cache %s, nproc %d, GOMAXPROCS %d, %s",
		m.CPU, llc, m.NumCPU, m.GOMAXPROCS, m.GoVersion)
}

// machineFacts reads the CPU model and last-level cache size from
// Linux's /proc and /sys; either reads as unknown elsewhere.
func machineFacts() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The cache with the highest level is the last-level one.
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		level, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || level < best {
			continue
		}
		if n, ok := parseCacheSize(strings.TrimSpace(string(size))); ok {
			best, m.LLCBytes = level, n
		}
	}
	return m
}

func readInt(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

// parseCacheSize reads sysfs cache sizes such as "32K" or "30720K".
func parseCacheSize(s string) (int64, bool) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

// peakRSSMB returns the process's peak resident set size in MiB
// (getrusage reports kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// logf reports a failed check on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
