package amulet

// One benchmark per evaluation table and violation figure of the paper.
// Each benchmark iteration regenerates the corresponding experiment at a
// laptop-scale budget and reports campaign-level metrics; run with
//
//	go test -bench=. -benchmem
//
// Budgets are deliberately small so the full suite finishes in minutes;
// `cmd/amulet -experiment tableN -scale paper` runs the paper-sized
// campaigns.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// benchScale keeps benchmark iterations in the seconds range.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1,
	}
}

// BenchmarkTable2_TimeBreakdown regenerates Table 2 (Naive vs Opt time
// breakdown per test program).
func BenchmarkTable2_TimeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(context.Background(), benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_BaselineNaiveVsOpt regenerates Table 3 (baseline CPU
// against CT-SEQ and CT-COND with both strategies).
func BenchmarkTable3_BaselineNaiveVsOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(context.Background(), benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_DefenseCampaigns regenerates Table 4 (campaigns against
// the baseline and all four countermeasures, with violation analysis).
func BenchmarkTable4_DefenseCampaigns(b *testing.B) {
	sc := benchScale()
	sc.Programs = 60
	var violations int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		violations = len(r.Reports)
	}
	b.ReportMetric(float64(violations), "defenses-with-violations")
}

// BenchmarkTable5_TraceFormats regenerates Table 5 (µarch trace formats).
func BenchmarkTable5_TraceFormats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(context.Background(), benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6_Amplification regenerates Table 6 (leakage amplification
// on the patched InvisiSpec; the 2-MSHR row exposes UV2).
func BenchmarkTable6_Amplification(b *testing.B) {
	sc := benchScale()
	sc.Seed = 5 // a seed whose budget reliably reaches the UV2 pattern
	sc.Programs = 100
	sc.BaseInputs = 8
	sc.Mutants = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8_CleanupSpecMatrix regenerates Table 8 (CleanupSpec
// violation types, original vs patched).
func BenchmarkTable8_CleanupSpecMatrix(b *testing.B) {
	sc := benchScale()
	sc.Programs = 80
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable11_LoC regenerates the integration-cost accounting.
func BenchmarkTable11_LoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table11(); err != nil {
			b.Fatal(err)
		}
	}
}

// figureBench runs a campaign to the first confirmed violation of one
// defense and produces its analyzed report — the material of the paper's
// violation figures. It reports the detection time as a metric.
func figureBench(b *testing.B, defense string, seed int64, programs int, mutate func(*fuzzer.CampaignConfig)) {
	spec, err := experiments.DefenseByName(defense)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.Seed = seed
	sc.Programs = programs
	sc.BaseInputs = 8
	sc.Mutants = 5
	found := 0.0
	var detectMS float64
	for i := 0; i < b.N; i++ {
		ccfg := experiments.CampaignConfig(spec, sc)
		ccfg.Base.StopOnFirstViolation = true
		if mutate != nil {
			mutate(&ccfg)
		}
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
		if err != nil {
			b.Fatal(err)
		}
		if !res.DetectedViolation() {
			continue
		}
		found++
		if d, ok := res.AvgDetectionTime(); ok {
			detectMS = float64(d.Milliseconds())
		}
		exec := executor.New(ccfg.Base.Exec, spec.Factory())
		if _, err := analysis.Analyze(exec, res.Violations[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(found/float64(b.N), "violation-found-rate")
	b.ReportMetric(detectMS, "detection-ms")
}

// BenchmarkFigure4_InvisiSpecUV1 finds and analyzes the speculative
// L1D-eviction violation in the unpatched InvisiSpec (paper Figure 4).
func BenchmarkFigure4_InvisiSpecUV1(b *testing.B) {
	figureBench(b, "invisispec", 2, 120, nil)
}

// BenchmarkFigure6_InvisiSpecUV2 finds and analyzes the same-core
// speculative interference violation on the patched InvisiSpec with two
// MSHRs (paper Figure 6 / Table 7).
func BenchmarkFigure6_InvisiSpecUV2(b *testing.B) {
	figureBench(b, "invisispec-patched", 3, 200, func(c *fuzzer.CampaignConfig) {
		c.Base.Exec.Core.Hier.L1D.Ways = 2
		c.Base.Exec.Core.Hier.MSHRs = 2
	})
}

// BenchmarkFigure8_SpecLFBUV6 finds and analyzes the unprotected
// first-speculative-load violation in SpecLFB (paper Figure 8).
func BenchmarkFigure8_SpecLFBUV6(b *testing.B) {
	figureBench(b, "speclfb", 7, 250, nil)
}

// BenchmarkFigure9_STTKV3 finds and analyzes the tainted-store TLB leak in
// STT (paper Figure 9).
func BenchmarkFigure9_STTKV3(b *testing.B) {
	figureBench(b, "stt", 9, 150, nil)
}

// engineBenchRecord is one entry of BENCH_engine.json: the machine-readable
// perf record BenchmarkCampaignSerialVsEngine emits so the engine's
// throughput trajectory can be tracked across commits without parsing
// benchmark text output.
type engineBenchRecord struct {
	Benchmark   string  `json:"benchmark"`
	NsPerOp     float64 `json:"ns_per_op"`
	CasesPerSec float64 `json:"cases_per_sec"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	TestCases   int     `json:"test_cases"`
}

// engineBenchBest accumulates the best sample (highest cases/s) seen per
// benchmark name across every invocation of the benchmark body in this
// process. That covers both b.N calibration reruns and `-count=N`
// repetitions: each attempt's cases/s is a complete single-campaign sample
// (it comes from res.Elapsed of one campaign, not amortized over b.N), and
// on shared CI runners the minimum-cost sample is the one least polluted by
// scheduler noise — so the best of three runs is what lands in
// BENCH_engine.json and what amulet-benchdiff gates on.
var engineBenchBest []engineBenchRecord

// recordEngineBench merges one sample into the accumulator, keeping the
// higher-throughput record per benchmark name.
func recordEngineBench(rec engineBenchRecord) {
	for i := range engineBenchBest {
		if engineBenchBest[i].Benchmark == rec.Benchmark {
			if rec.CasesPerSec > engineBenchBest[i].CasesPerSec {
				engineBenchBest[i] = rec
			}
			return
		}
	}
	engineBenchBest = append(engineBenchBest, rec)
}

// writeEngineBenchJSON writes the collected records next to the package
// (BENCH_engine.json). Failures are reported but never fail the benchmark:
// perf tracking must not mask the numbers it tracks.
func writeEngineBenchJSON(b *testing.B, recs []engineBenchRecord) {
	b.Helper()
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		b.Logf("BENCH_engine.json: marshal failed: %v", err)
		return
	}
	if err := os.WriteFile("BENCH_engine.json", append(data, '\n'), 0o644); err != nil {
		b.Logf("BENCH_engine.json: write failed: %v", err)
	}
}

// BenchmarkCampaignSerialVsEngine contrasts worker counts of the campaign
// engine on an identical budget: one worker (the paper's serial,
// single-machine layout) against the work-stealing pool of pooled,
// boot-checkpointed executors on all cores. The tests/s metric is the
// paper's campaign throughput; on a multi-core machine the pool must be at
// least as fast.
// Alongside the usual text output it writes BENCH_engine.json (ns/op,
// cases/sec, worker count) for machine consumption.
func BenchmarkCampaignSerialVsEngine(b *testing.B) {
	spec, err := experiments.DefenseByName("baseline")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	run := func(b *testing.B, name string, workers int, campaign func() (*fuzzer.CampaignResult, error)) {
		var tests float64
		var secs float64
		cases := 0
		for i := 0; i < b.N; i++ {
			res, err := campaign()
			if err != nil {
				b.Fatal(err)
			}
			tests = float64(res.TestCases)
			secs = res.Elapsed.Seconds()
			cases = res.TestCases
		}
		if secs > 0 {
			b.ReportMetric(tests/secs, "tests/s")
			rec := engineBenchRecord{
				Benchmark:   "CampaignSerialVsEngine/" + name,
				NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				CasesPerSec: tests / secs,
				Workers:     workers,
				Iterations:  b.N,
				TestCases:   cases,
			}
			recordEngineBench(rec)
		}
	}
	b.Run("serial", func(b *testing.B) {
		run(b, "serial", 1, func() (*fuzzer.CampaignResult, error) {
			ccfg := experiments.CampaignConfig(spec, sc)
			return engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 1})
		})
	})
	b.Run("engine", func(b *testing.B) {
		run(b, "engine", runtime.GOMAXPROCS(0), func() (*fuzzer.CampaignResult, error) {
			ccfg := experiments.CampaignConfig(spec, sc)
			return engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
		})
	})
	// A pinned four-worker run tracks scaling at a machine-independent
	// worker count: GOMAXPROCS varies across CI runners and laptops, so the
	// all-cores entry alone cannot distinguish per-worker regressions from
	// core-count differences.
	b.Run("engine-w4", func(b *testing.B) {
		run(b, "engine-w4", 4, func() (*fuzzer.CampaignResult, error) {
			ccfg := experiments.CampaignConfig(spec, sc)
			return engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 4})
		})
	})
	// The same engine budget with the wasm stack frontend: generation,
	// mutation and lowering all run per test case, so this entry tracks the
	// per-frontend cost of the pluggable-ISA seam. It gets its own baseline
	// entry rather than a gate against the toy number — stack programs lower
	// to more µops per source instruction, so the two throughputs are not
	// comparable.
	b.Run("engine-wasm", func(b *testing.B) {
		run(b, "engine-wasm", runtime.GOMAXPROCS(0), func() (*fuzzer.CampaignResult, error) {
			ccfg := experiments.CampaignConfig(spec, sc)
			ccfg.Base.Frontend = wasm.Frontend
			return engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
		})
	})
	// With -count=N the whole function reruns; each pass rewrites the file
	// with the best samples accumulated so far, so the final pass wins.
	writeEngineBenchJSON(b, engineBenchBest)
}

// BenchmarkStrategyRandomVsCorpus contrasts the generation strategies on an
// identical engine budget, reporting each strategy's violations per 1000
// executed cases — the coverage feedback loop's payoff metric.
func BenchmarkStrategyRandomVsCorpus(b *testing.B) {
	spec, err := experiments.DefenseByName("cleanupspec")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.Programs = 60
	for _, strategy := range []string{engine.StrategyRandom, engine.StrategyCorpus} {
		b.Run(strategy, func(b *testing.B) {
			var perK float64
			for i := 0; i < b.N; i++ {
				ccfg := experiments.CampaignConfig(spec, sc)
				res, err := engine.RunCampaign(context.Background(), engine.Config{
					Campaign: ccfg, Strategy: strategy,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.TestCases > 0 {
					perK = 1000 * float64(len(res.Violations)) / float64(res.TestCases)
				}
			}
			b.ReportMetric(perK, "violations/1k-cases")
		})
	}
}

// --- micro-benchmarks of the substrate (ablation aids) ---

// BenchmarkSimulatorThroughput measures raw simulator speed: test cases
// per second on the baseline core with Opt-style resets (the quantity the
// paper reports as testing throughput).
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := experiments.DefenseByName("baseline")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	ccfg := experiments.CampaignConfig(spec, sc)
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		total = res.TestCases
	}
	b.ReportMetric(float64(total), "testcases/op")
}

// BenchmarkPrimeFillVsInvalidate quantifies the cache-reset cost gap that
// drives the InvisiSpec-vs-CleanupSpec throughput difference in Table 4.
func BenchmarkPrimeFillVsInvalidate(b *testing.B) {
	for _, mode := range []executor.PrimeMode{executor.PrimeFill, executor.PrimeInvalidate} {
		b.Run(mode.String(), func(b *testing.B) {
			spec, err := experiments.DefenseByName("baseline")
			if err != nil {
				b.Fatal(err)
			}
			sc := benchScale()
			ccfg := experiments.CampaignConfig(spec, sc)
			ccfg.Base.Exec.Prime = mode
			ccfg.Base.Programs = 20
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDefenseComparison regenerates the extended security/performance
// comparison across all eight defense configurations.
func BenchmarkDefenseComparison(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DefenseComparison(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPriming quantifies the cache-priming design decision
// (§3.2 C2): campaigns that start from primed (full) sets see leaks through
// installs *and* evictions, so they confirm more violations than campaigns
// starting from a clean cache. The metric reported per sub-benchmark is the
// number of confirmed violations on identical budgets and seeds.
func BenchmarkAblationPriming(b *testing.B) {
	run := func(b *testing.B, prime executor.PrimeMode) {
		spec, err := experiments.DefenseByName("invisispec")
		if err != nil {
			b.Fatal(err)
		}
		sc := benchScale()
		sc.Programs = 80
		violations := 0
		for i := 0; i < b.N; i++ {
			ccfg := experiments.CampaignConfig(spec, sc)
			ccfg.Base.Exec.Prime = prime
			res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
			if err != nil {
				b.Fatal(err)
			}
			violations = len(res.Violations)
		}
		b.ReportMetric(float64(violations), "violations")
	}
	b.Run("primed-sets", func(b *testing.B) { run(b, executor.PrimeFill) })
	b.Run("clean-cache", func(b *testing.B) { run(b, executor.PrimeInvalidate) })
}

// BenchmarkAblationValidation quantifies the violation-validation design
// decision: without the common-context replay, predictor-state carryover
// between Opt inputs fabricates mismatches that are not input-dependent
// leaks. The metrics contrast raw µarch-trace mismatches (validation
// attempts) with confirmed violations on the unpatched InvisiSpec: the gap
// is what validation filtered out.
func BenchmarkAblationValidation(b *testing.B) {
	spec, err := experiments.DefenseByName("invisispec")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.Programs = 80
	var mismatches, confirmed float64
	for i := 0; i < b.N; i++ {
		ccfg := experiments.CampaignConfig(spec, sc)
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
		if err != nil {
			b.Fatal(err)
		}
		m := 0
		for _, inst := range res.Instances {
			m += inst.ValidationRuns
		}
		mismatches = float64(m)
		confirmed = float64(len(res.Violations))
	}
	b.ReportMetric(mismatches, "raw-mismatches")
	b.ReportMetric(confirmed, "confirmed-violations")
}
