package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metadata labels a result with where and how it was measured, so numbers
// taken on another box read as trajectory points, not as gates.
func metadata(b *bench) []string {
	commit, pgo := "unknown", "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				commit += "-dirty"
			case s.Key == "-pgo" && s.Value != "":
				pgo = s.Value
			}
		}
	}
	w := b.w
	return []string{
		fmt.Sprintf("go: %s  GOMAXPROCS: %d  nproc: %d  cpu: %s",
			runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()),
		fmt.Sprintf("commit: %s  pgo: %s", commit, pgo),
		fmt.Sprintf("workload: %s  seed: %d  seconds: %.0f  defenses: %s  isa: %s  strategy: %s",
			w.name, b.seed, b.seconds.Seconds(), strings.Join(w.defenses, ","), w.frontend, w.strategy),
		fmt.Sprintf("budget: %d rounds x %d campaigns x %d instances x %d programs x %d inputs, %d workers",
			len(b.roundCPS), len(w.defenses), w.instances, w.programs, baseInputs*(1+mutants), workers),
		fmt.Sprintf("units: %d attempted, %d failed", b.attempted, b.failed),
		fmt.Sprintf("cases/s per round: %.0f", b.roundCPS),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) from the
// current resident set, so that the next peakRSSMB reads the peak since
// this call. Where the kernel does not allow it, the peak since process
// start is read instead.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
