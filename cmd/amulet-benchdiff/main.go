// Command amulet-benchdiff compares two BENCH_engine.json files (the
// machine-readable record BenchmarkCampaignSerialVsEngine emits) and fails
// when campaign throughput regressed beyond a threshold. CI's bench-smoke
// job runs it against the committed baseline and pipes the markdown table
// into the job summary, so a throughput regression fails the build with
// the delta in plain sight instead of hiding in an artifact.
//
// Usage:
//
//	amulet-benchdiff -baseline BENCH_engine.json -fresh /tmp/fresh.json [-max-regress 10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// record mirrors bench_test.go's engineBenchRecord (kept in sync by the
// shared JSON schema; unknown fields are ignored on both sides).
type record struct {
	Benchmark   string  `json:"benchmark"`
	NsPerOp     float64 `json:"ns_per_op"`
	CasesPerSec float64 `json:"cases_per_sec"`
	Workers     int     `json:"workers"`
	TestCases   int     `json:"test_cases"`
}

func load(path string) (map[string]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]record, len(recs))
	for _, r := range recs {
		// Duplicate names collapse to the best sample. The benchmark itself
		// already writes best-of-run files, but concatenated result sets
		// (several CI runs appended into one JSON array) are a natural way to
		// widen the sample pool, and gating on the minimum-cost sample is
		// what keeps shared-runner noise from tripping the regression gate.
		if prev, ok := out[r.Benchmark]; !ok || r.CasesPerSec > prev.CasesPerSec {
			out[r.Benchmark] = r
		}
	}
	return out, nil
}

func main() {
	var (
		baseline   = flag.String("baseline", "", "committed BENCH_engine.json to compare against")
		fresh      = flag.String("fresh", "BENCH_engine.json", "freshly generated BENCH_engine.json")
		maxRegress = flag.Float64("max-regress", 10, "maximum tolerated cases/s regression, percent")
	)
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "amulet-benchdiff: -baseline is required")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*fresh)
	if err != nil {
		fatal(err)
	}

	// Every baseline entry is compared — the one-worker (serial) entry's
	// throughput is gated exactly like the pooled entries', so a regression
	// that only shows without the worker pool (single-executor reuse) still
	// fails the build. Improvements beyond the same threshold are
	// called out too: a PR claiming a perf win gets its receipt (or its
	// absence) in the job summary.
	fmt.Println("### Campaign benchmarks vs committed baseline")
	fmt.Println()
	fmt.Println("| benchmark | baseline cases/s | fresh cases/s | delta |")
	fmt.Println("| --- | ---: | ---: | ---: |")
	failed := false
	compared, improved := 0, 0
	var missing []string
	for _, b := range sortedKeys(base) {
		old := base[b]
		now, ok := cur[b]
		if !ok {
			fmt.Printf("| %s | %.0f | _missing_ | — |\n", b, old.CasesPerSec)
			missing = append(missing, b)
			continue
		}
		compared++
		delta := 100 * (now.CasesPerSec - old.CasesPerSec) / old.CasesPerSec
		mark := ""
		switch {
		case delta < -*maxRegress:
			mark = " ❌"
			failed = true
		case delta > *maxRegress:
			mark = " ✅"
			improved++
		}
		fmt.Printf("| %s | %.0f | %.0f | %+.1f%%%s |\n", b, old.CasesPerSec, now.CasesPerSec, delta, mark)
	}
	var newEntries []string
	for _, b := range sortedKeys(cur) {
		if _, ok := base[b]; !ok {
			// A benchmark the baseline has not recorded yet — typically a
			// brand-new sub-benchmark such as a freshly added ISA frontend.
			// That is not a regression and must not fail the build; it is a
			// cue that the committed baseline needs a refresh so the new
			// entry starts being gated too.
			fmt.Printf("| %s | _new_ | %.0f | — |\n", b, cur[b].CasesPerSec)
			newEntries = append(newEntries, b)
		}
	}
	fmt.Println()
	if len(newEntries) > 0 {
		fmt.Printf("NOTE: %d benchmark(s) have no committed baseline yet: %s. "+
			"Needs baseline refresh — add them to BENCH_engine.baseline.json to gate them from the next change on.\n\n",
			len(newEntries), strings.Join(newEntries, ", "))
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "amulet-benchdiff: no common benchmarks to compare")
		os.Exit(2)
	}
	// A baseline entry with no fresh counterpart is its own failure mode —
	// the benchmark was renamed or dropped, not slow — and gets its own
	// message so it cannot masquerade as a throughput regression.
	if len(missing) > 0 {
		fmt.Printf("**FAIL**: %d baseline benchmark(s) missing from the fresh results: %s.\n"+
			"Renamed or removed benchmarks must refresh the committed baseline in the same change.\n",
			len(missing), strings.Join(missing, ", "))
		os.Exit(1)
	}
	if failed {
		fmt.Printf("**FAIL**: cases/s regressed more than %.0f%% against the baseline.\n", *maxRegress)
		os.Exit(1)
	}
	if improved > 0 {
		fmt.Printf("OK: %d of %d benchmarks improved more than %.0f%%; none regressed beyond it. Consider refreshing the committed baseline.\n",
			improved, compared, *maxRegress)
		return
	}
	fmt.Printf("OK: no benchmark regressed more than %.0f%%.\n", *maxRegress)
}

func sortedKeys(m map[string]record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amulet-benchdiff:", err)
	os.Exit(2)
}
