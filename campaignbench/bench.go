package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// setupReps is the least number of times set-up is timed; setup_s is the
// median.
const setupReps = 15

// bench is one benchmark run of one workload.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration

	roundCPS          []float64 // cases per second of each round timed
	attempted, failed int       // work units
	problems          []string
}

// fail counts units as failed and records why.
func (b *bench) fail(units int, format string, args ...any) {
	b.failed += units
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// campaignRun is one engine campaign: its configuration and result.
type campaignRun struct {
	ccfg fuzzer.CampaignConfig
	res  *fuzzer.CampaignResult
}

// phase accumulates the engine campaigns of one run phase.
type phase struct {
	campaigns int
	cases     int
	wall      time.Duration
	roundCPS  []float64 // test cases per second of each round's campaigns
	rssMB     []float64 // peak resident set during each campaign
	alloc     uint64    // heap bytes allocated during the campaigns
	gcs       uint32
	detect    []float64     // AvgDetectionTime, seconds, of campaigns that found one
	coverage  int           // coverage features, summed over campaigns
	totals    fuzzer.Result // counters only: violations are not retained
	confirmed int           // violations reported
	kept      []campaignRun // campaigns kept for the replay check
}

// casesPerSec is the median over rounds of the cases per second of a
// round's campaigns; the median keeps a burst of load from other
// processes on the host from moving the whole run.
func (p *phase) casesPerSec() float64 { return median(p.roundCPS) }

// runPhase runs rounds of campaigns — every defense of the workload once
// per round, seeded from the workload seed — until the budget has passed,
// or exactly `rounds` rounds when rounds > 0. Campaigns of the first
// keepRounds rounds are kept for the replay check. A non-nil probe times
// set-up once before each round, so that its samples spread over the run
// like the rounds do.
func (b *bench) runPhase(ctx context.Context, budget time.Duration, rounds, keepRounds int, tr *tracer, probe *setupProbe) *phase {
	p := &phase{}
	start := time.Now()
	more := func(r int) bool {
		if rounds > 0 {
			return r < rounds
		}
		return r == 0 || time.Since(start) < budget
	}
	for r := 0; more(r) && ctx.Err() == nil; r++ {
		if probe != nil {
			if err := probe.rep(ctx, nil); err != nil {
				b.fail(0, "%v", err)
			}
		}
		cases, wall := p.cases, p.wall
		for c, def := range b.w.defenses {
			ccfg, err := b.w.campaignConfig(def, campaignSeed(b.seed, r, c))
			if err != nil {
				b.attempted += b.w.units()
				b.fail(b.w.units(), "%s: %v", def, err)
				continue
			}
			if run := b.runCampaign(ctx, p, ccfg, def, tr); run != nil && r < keepRounds {
				p.kept = append(p.kept, *run)
			}
		}
		p.roundCPS = append(p.roundCPS, ratio(float64(p.cases-cases), (p.wall-wall).Seconds()))
	}
	return p
}

// runCampaign runs and checks one engine campaign, folding it into p.
func (b *bench) runCampaign(ctx context.Context, p *phase, ccfg fuzzer.CampaignConfig, def string, tr *tracer) *campaignRun {
	units := b.w.units()
	b.attempted += units
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	sp := tr.begin("engine.RunCampaign", def, 0, 0)
	t0 := time.Now()
	res, err := engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: workers, Strategy: b.w.strategy})
	wall := time.Since(t0)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	if err != nil || res == nil {
		b.fail(units, "%s seed %d: campaign failed: %v", def, ccfg.Base.Seed, err)
		return nil
	}
	p.campaigns++
	p.cases += res.TestCases
	p.wall += wall
	p.rssMB = append(p.rssMB, rss)
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.gcs += m1.NumGC - m0.NumGC
	if d, ok := res.AvgDetectionTime(); ok {
		p.detect = append(p.detect, d.Seconds())
	}
	tot := res.Totals()
	if tot.Coverage != nil {
		p.coverage += tot.Coverage.Count()
	}
	p.confirmed += len(tot.Violations)
	tot.Violations = nil
	p.totals.Merge(tot)
	b.check(ccfg, def, res)
	return &campaignRun{ccfg: ccfg, res: res}
}

// check verifies one campaign's results: no quarantined or timed-out
// units, no violation on a patched configuration that should have none,
// and every reported violation a real contract-equivalent pair (the model
// gives both inputs the recorded contract trace).
func (b *bench) check(ccfg fuzzer.CampaignConfig, def string, res *fuzzer.CampaignResult) {
	m := res.Totals().Metrics
	if n := m.Quarantined + m.TimedOut; n > 0 {
		b.fail(n, "%s seed %d: %d units quarantined, %d timed out", def, ccfg.Base.Seed, m.Quarantined, m.TimedOut)
	}
	if strings.HasSuffix(def, "-patched") {
		b.checkPatched(ccfg, def, res)
	}
	for _, v := range res.Violations {
		model := contract.NewModel(ccfg.Base.Contract, v.Program, v.Sandbox)
		if !model.CollectTrace(v.InputA).Equal(v.CTrace) || !model.CollectTrace(v.InputB).Equal(v.CTrace) {
			b.fail(1, "%s seed %d program %d: violating inputs are not contract-equivalent",
				def, ccfg.Base.Seed, v.ProgramIndex)
		}
	}
}

// stillLeaky names the patched configurations that keep leaking through
// bugs their patch does not touch: patched CleanupSpec fixes only the
// speculative-store leak (UV3), while split requests (UV4) and
// over-cleaning (UV5) remain, as in the paper's Table 8. Every other
// patched configuration must report no violation.
var stillLeaky = map[string]bool{"cleanupspec-patched": true}

// checkPatched fails the units of a patched configuration that reported a
// violation.
func (b *bench) checkPatched(ccfg fuzzer.CampaignConfig, def string, res *fuzzer.CampaignResult) {
	if stillLeaky[def] || len(res.Violations) == 0 {
		return
	}
	units := map[[2]int]bool{}
	for i, r := range res.Instances {
		for _, v := range r.Violations {
			units[[2]int{i, v.ProgramIndex}] = true
		}
	}
	b.fail(len(units), "%s seed %d: patched configuration reported %d violations",
		def, ccfg.Base.Seed, len(res.Violations))
}

// replayCheck replays each kept random-strategy campaign serially and
// compares violation fingerprints with the engine run. It returns the
// replays' executor counters, boot excluded.
func (b *bench) replayCheck(ctx context.Context, runs []campaignRun, tr *tracer) (*replayStats, error) {
	all := &replayStats{}
	for _, run := range runs {
		rs, err := replay(ctx, run.ccfg, tr, 0)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, err
		}
		name := run.ccfg.Base.DefenseFactory().Name()
		if err != nil {
			b.fail(b.w.units(), "%s seed %d: %v", name, run.ccfg.Base.Seed, err)
			continue
		}
		if err := checkFingerprint(run.res.Violations, rs.violations); err != nil {
			b.fail(b.w.units(), "%s seed %d: %v", name, run.ccfg.Base.Seed, err)
		}
		all.met.Add(rs.met)
	}
	return all, nil
}

// setupProbe times set-up: bringing every defense configuration of the
// workload to a booted executor.
type setupProbe struct {
	bases []fuzzer.Config
	progs []*isa.Program // the program each configuration loads first
	sbs   []isa.Sandbox
	sums  []float64 // summed set-up seconds of each repetition
	boots []float64 // boot-workload nanoseconds of each configuration booted
}

func (b *bench) newSetupProbe(ctx context.Context) (*setupProbe, error) {
	s := &setupProbe{}
	for c, def := range b.w.defenses {
		ccfg, err := b.w.campaignConfig(def, campaignSeed(b.seed, 0, c))
		if err != nil {
			return nil, err
		}
		pc, err := firstCase(ctx, ccfg)
		if err != nil {
			return nil, err
		}
		// Keep only the program: the case's inputs (48 sandbox images) would
		// stay live through the campaigns and raise their heap goal.
		s.bases = append(s.bases, ccfg.Base)
		s.progs, s.sbs = append(s.progs, pc.Prog), append(s.sbs, pc.SB)
	}
	return s, nil
}

// rep sets every configuration up once, recording the summed host time
// and each boot-workload time (executor Metrics.Startup of the first
// start). Every repetition starts from a collected heap; its garbage (some
// 7 MB per executor) is then returned to the OS, so that it does not
// count towards the next campaign's resident set.
func (s *setupProbe) rep(ctx context.Context, tr *tracer) error {
	runtime.GC()
	defer debug.FreeOSMemory()
	var sum time.Duration
	for c, base := range s.bases {
		exec, d, err := bootExecutor(ctx, base, s.progs[c], s.sbs[c], tr, 0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		sum += d
		s.boots = append(s.boots, float64(exec.Metrics().Startup.Nanoseconds()))
	}
	s.sums = append(s.sums, sum.Seconds())
	return nil
}

// fill repeats set-up until it has been timed setupReps times.
func (s *setupProbe) fill(ctx context.Context, tr *tracer) error {
	for len(s.sums) < setupReps {
		if err := s.rep(ctx, tr); err != nil {
			return err
		}
	}
	return nil
}

// runTimed is the untraced run: campaigns for the budget with set-up timed
// between rounds, then a serial replay of the first round's campaigns as a
// correctness check.
func (b *bench) runTimed(ctx context.Context) (*report, error) {
	probe, err := b.newSetupProbe(ctx)
	if err != nil {
		return nil, err
	}
	p := b.runPhase(ctx, b.seconds, 0, 1, nil, probe)
	if err := probe.fill(ctx, nil); err != nil {
		return nil, err
	}
	b.roundCPS = p.roundCPS
	if b.w.random() {
		if _, err := b.replayCheck(ctx, p.kept, nil); err != nil {
			b.fail(0, "replay check: %v", err)
		}
	}
	return &report{
		correct:   b.failed == 0 && len(b.problems) == 0,
		attempted: b.attempted,
		failed:    b.failed,
		notes: []metric{
			{"detect_s", meanOrZero(p.detect), "s"},
			{"engine.detect_campaigns", float64(len(p.detect)), "count"},
			b.errorRate(),
		},
		metrics: []metric{
			{"cases_per_s", p.casesPerSec(), "1/s"},
			{"alloc_bytes_per_case", ratio(float64(p.alloc), float64(p.cases)), "B"},
			{"peak_rss_mb", median(p.rssMB), "MB"},
			{"setup_s", median(probe.sums), "s"},
		},
	}, nil
}

func (b *bench) errorRate() metric {
	return metric{"error_rate", ratio(float64(b.failed), float64(b.attempted)), "frac"}
}

// runTraced is the traced run: set-up with boot spans, an untraced phase
// for a third of the budget, then the same rounds again with spans around
// every campaign, plus a serial, span-instrumented replay of every unit of
// the random-strategy workloads. The spans are written to tracePath.
func (b *bench) runTraced(ctx context.Context, tracePath string) (*report, error) {
	tr := newTracer()
	probe, err := b.newSetupProbe(ctx)
	if err != nil {
		return nil, err
	}
	if err := probe.fill(ctx, tr); err != nil {
		return nil, err
	}
	plain := b.runPhase(ctx, b.seconds/3, 0, 0, nil, nil)
	rounds := len(plain.roundCPS)
	traced := b.runPhase(ctx, 0, rounds, rounds, tr, nil)
	b.roundCPS = plain.roundCPS
	var rs *replayStats
	if b.w.random() {
		if rs, err = b.replayCheck(ctx, traced.kept, tr); err != nil {
			b.fail(0, "replay check: %v", err)
			rs = &replayStats{}
		}
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	return &report{
		correct:   b.failed == 0 && len(b.problems) == 0,
		attempted: b.attempted,
		failed:    b.failed,
		metrics:   layerMetrics(b, plain, traced, rs, tr, median(probe.boots)),
	}, nil
}

// meanOrZero returns the mean of xs, or 0 for none.
func meanOrZero(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// layerMetrics derives the per-layer breakdown from the traced phase's
// program counters, the replay's spans and counters, and set-up.
func layerMetrics(b *bench, plain, traced *phase, rs *replayStats, tr *tracer, bootNs float64) []metric {
	t := &traced.totals
	m := t.Metrics
	cases := float64(t.TestCases)
	perCase := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), cases) }
	stage := t.GenTime + t.ModelTime + m.Startup + m.Prime + m.Simulate + m.TraceExtract + m.Digest
	frac := func(d time.Duration) float64 { return ratio(float64(d), float64(stage)) }
	mutAttempts := float64(t.Programs * baseInputs * mutants)

	var startupPerProg float64
	var caseP50, caseTail, execP50, execTail, tailPct float64
	units := 0
	if rs != nil {
		rm := rs.met
		startupPerProg = ratio(float64(rm.Startup.Nanoseconds()), float64(rm.Starts))
		cs, es := tr.durations("fuzzer.case"), tr.durations("fuzzer.execute")
		units = len(cs)
		caseP50, execP50 = median(cs), median(es)
		caseTail, tailPct = tail(cs)
		execTail, _ = tail(es)
	}
	return []metric{
		{"generator.ns_per_case", perCase(t.GenTime), "ns"},
		{"contract.ns_per_case", perCase(t.ModelTime), "ns"},
		{"contract.mutant_accept_ratio", ratio(mutAttempts-float64(t.RejectedMutants), mutAttempts), "frac"},
		{"contract.truncations", float64(m.Truncations), "count"},
		{"uarch.simulate_ns_per_case", perCase(m.Simulate), "ns"},
		{"executor.prime_ns_per_case", perCase(m.Prime), "ns"},
		{"executor.extract_ns_per_case", perCase(m.TraceExtract), "ns"},
		{"executor.digest_ns_per_case", perCase(m.Digest), "ns"},
		{"executor.boot_ns", bootNs, "ns"},
		{"executor.startup_ns_per_program", startupPerProg, "ns"},
		{"fuzzer.case_ns.p50", caseP50, "ns"},
		{"fuzzer.case_ns.tail", caseTail, "ns"},
		{"fuzzer.execute_ns.p50", execP50, "ns"},
		{"fuzzer.execute_ns.tail", execTail, "ns"},
		{"fuzzer.tail_percentile", tailPct, "%"},
		{"fuzzer.replayed_units", float64(units), "count"},
		{"fuzzer.validation_yield", ratio(float64(traced.confirmed), float64(t.ValidationRuns)), "frac"},
		{"engine.stage_busy_frac", ratio(float64(stage), float64(workers)*float64(traced.wall)), "frac"},
		{"detect_s", meanOrZero(plain.detect), "s"},
		{"engine.detect_campaigns", float64(len(plain.detect)), "count"},
		{"generator.stage_frac", frac(t.GenTime), "frac"},
		{"contract.stage_frac", frac(t.ModelTime), "frac"},
		{"uarch.simulate_stage_frac", frac(m.Simulate), "frac"},
		{"executor.stage_frac", frac(m.Startup + m.Prime + m.TraceExtract + m.Digest), "frac"},
		{"uarch.coverage_features", ratio(float64(traced.coverage), float64(traced.campaigns)), "count"},
		{"runtime.gc_cycles_per_kcase", ratio(float64(plain.gcs), float64(plain.cases)/1000), "1/kcase"},
		{"trace.overhead_frac", 1 - ratio(traced.casesPerSec(), plain.casesPerSec()), "frac"},
		b.errorRate(),
	}
}
