// Command campaignbench is the repository's campaign benchmark. It runs
// AMuLeT-Go testing campaigns in this process through the public entry
// points (engine.RunCampaign, experiments.CampaignConfig,
// experiments.DefenseByName), checks their results, and prints the
// end-to-end metrics (--trace 0) or the per-layer breakdown of a separate
// traced run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh, which builds it with the shipped PGO profile:
//
//	bash campaignbench/run.sh --workload stt-128page --seed 1 --seconds 20 --trace 0
//
// README.md lists the workloads, the metrics and the layer each one
// measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runTimeout bounds one benchmark run; campaigns still running then are
// cancelled and counted as failed.
const runTimeout = 170 * time.Second

func main() {
	name := flag.String("workload", "paper-1page", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "seconds of timed campaigns")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	var rep *report
	if *trace == 1 {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		rep, err = b.runTraced(ctx, path)
	} else {
		rep, err = b.runTimed(ctx)
	}
	if err != nil {
		fatal(err)
	}
	for _, line := range metadata(b) {
		fmt.Println(line)
	}
	for _, p := range b.problems {
		fmt.Println("FAIL:", p)
	}
	for _, m := range rep.notes {
		fmt.Printf("%-36s %16.6g %s (not gated)\n", m.name, m.value, m.unit)
	}
	for _, m := range rep.metrics {
		fmt.Printf("%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	out, err := rep.json()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's result: the metrics of the result line, and notes
// printed before it only.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []metric
}

func (r *report) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// ratio returns a/b, or 0 when b is 0, so that no metric is NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of a ladder of percentiles that still has at
// least ten samples beyond it, with that percentile; with fewer than
// eleven samples it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, q := range []float64{99.9, 99, 95, 90, 75} {
		idx := int(math.Ceil(q/100*float64(n))) - 1 // nearest rank
		if idx >= 0 && n-1-idx >= 10 {
			return s[idx], q
		}
	}
	return median(xs), 50
}
