// Package engine is the campaign scheduler: it decomposes a fuzzing
// campaign into program-level work units (generate → contract-model
// collect → µarch execute → compare → validate) and runs them on a
// work-stealing worker pool, each worker owning a pooled executor whose
// simulated core — and post-boot checkpoint — is reused across programs.
//
// It is the only campaign driver. One worker is the paper's serial layout;
// more workers schedule the ~Instances×Programs individual programs rather
// than whole instances, so a campaign of few instances still uses every
// core and no slow instance straggles the run: workers drain their own
// queues front-first and steal from the back of others' queues when empty,
// so load imbalance (programs vary widely in simulation cost) evens out
// automatically.
//
// # Generation strategies and epochs
//
// The engine threads a generation strategy (internal/generator.Strategy)
// through every work unit. StrategyRandom is the blind baseline — bit for
// bit the behaviour campaigns had before the strategy layer existed.
// StrategyCorpus closes the feedback loop: executors run with the
// speculation-coverage signal enabled (uarch.Coverage), and the campaign is
// split into deterministic epochs. Epoch N generates programs only from the
// corpus frozen at the end of epoch N−1 (coverage-novel and violating
// programs, recombined by the program-level mutators); after the epoch's
// units complete, their coverage is merged and corpus admission decided in
// (instance, program-index) order, never in completion order.
//
// # Determinism contract
//
// An identical seed yields an identical violation set — and, under
// StrategyCorpus, an identical corpus — regardless of worker count. Four
// properties deliver it:
//
//   - every work unit draws from its own RNG streams derived from the
//     campaign seed (fuzzer.UnitSeed), so build order is irrelevant;
//   - µarch execution of one program always starts from the same post-boot
//     context (the pooled executors' checkpoint restores exactly the state
//     a fresh start builds), so unit results — violations and coverage
//     alike — depend only on the unit, not on which worker ran it;
//   - epochs are barriers: all of epoch N−1 completes before its coverage
//     is merged (in (instance, program) order) and its corpus frozen, so
//     the corpus an epoch-N unit mutates is schedule-independent;
//   - results are aggregated in (instance, program-index) order no matter
//     the order in which workers finished them, with the StopOnFirst cut
//     re-derived deterministically from the lowest violating index.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Generation strategy names (Config.Strategy, cmd/amulet -strategy).
const (
	// StrategyRandom generates every program blindly from the seeded
	// streams — the paper's setup, and the default.
	StrategyRandom = "random"
	// StrategyCorpus is coverage-guided generation over deterministic
	// epochs.
	StrategyCorpus = "corpus"
)

// DefaultEpochs is the corpus-strategy epoch count when Config.Epochs is
// unset: epoch 0 explores randomly, later epochs mutate the corpus.
const DefaultEpochs = 4

// Config configures an engine-scheduled campaign.
type Config struct {
	// Campaign is the campaign shape: Base config plus the instance count.
	// Base.Seed seeds the whole campaign.
	Campaign fuzzer.CampaignConfig
	// Workers sets the worker-pool size (and thus the executor-pool size);
	// zero uses GOMAXPROCS. The violation set is identical for every
	// value; counters and timings (TestCases, Metrics, Elapsed) are not,
	// since cancellation and stop-on-first races decide how much extra
	// work runs.
	Workers int
	// Strategy selects the generation strategy: StrategyRandom (default)
	// or StrategyCorpus.
	Strategy string
	// Epochs splits a corpus-strategy campaign into this many deterministic
	// epochs (zero = DefaultEpochs). Random campaigns are a single epoch;
	// setting Epochs > 1 with StrategyRandom is a configuration error.
	Epochs int

	// CheckpointDir enables crash-safe campaigns: progress is persisted
	// there (atomically — see internal/checkpoint) at epoch boundaries and
	// when a cancelled campaign finishes draining its workers, and
	// quarantined units' repro bundles land in its quarantine/ subdirectory.
	// Empty disables durability; checkpoint I/O never sits on the per-unit
	// hot path either way.
	CheckpointDir string
	// Resume restores progress from CheckpointDir before running: done
	// units keep their checkpointed results and only unfinished work runs,
	// landing on the same final results as an uninterrupted campaign (the
	// determinism contract plus unit-granular progress make the two
	// indistinguishable). A missing checkpoint is a fresh start; a corrupt
	// one, or one written under a different configuration, is an error.
	// Requires CheckpointDir.
	Resume bool
	// UnitTimeout arms a per-unit watchdog: a unit that exceeds the
	// deadline is abandoned (its goroutine and executor with it), counted
	// in Metrics.TimedOut, and bundled for replay like a quarantined panic;
	// the campaign keeps going. Zero — the default — disables the watchdog,
	// and units run inline on their worker with no extra goroutine.
	UnitTimeout time.Duration
	// Inject is the deterministic fault-injection harness hook. Nil in
	// production (every hook on a nil injector is an inert nil check); the
	// crash/resume, quarantine, and corruption tests arm it.
	Inject *faultinject.Injector
}

// unit is one program-level work unit.
type unit struct {
	inst, prog int
	seed       int64
}

// deque is one worker's unit queue. The owner pops from the front; idle
// workers steal from the back, which moves whole chunks of untouched work
// away from busy workers with minimal contention.
type deque struct {
	mu    sync.Mutex
	units []unit
}

func (d *deque) popFront() (unit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.units) == 0 {
		return unit{}, false
	}
	u := d.units[0]
	d.units = d.units[1:]
	return u, true
}

func (d *deque) stealBack() (unit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.units) == 0 {
		return unit{}, false
	}
	u := d.units[len(d.units)-1]
	d.units = d.units[:len(d.units)-1]
	return u, true
}

// campaign is the mutable state of one engine run, shared by its epochs.
type campaign struct {
	base      fuzzer.Config
	instances int
	programs  int
	workers   int
	pool      *executor.Pool
	start     time.Time

	// stopAt[i] is the lowest program index of instance i known to hold a
	// confirmed violation; under StopOnFirstViolation, units beyond it are
	// skipped. Aggregation and corpus admission re-derive the deterministic
	// cut, so the racy skip is purely a work-avoidance optimization.
	stopAt []atomic.Int64

	// results[i][p] is the unit result; progs[i][p] the generated source
	// program (recorded only under the corpus strategy, for admission).
	results [][]*fuzzer.Result
	progs   [][]isa.SourceProgram

	// Corpus state (corpus strategy only): the campaign-global coverage map
	// and the admitted entries. Mutated only between epochs, in
	// (instance, program) order.
	cover   *uarch.Coverage
	entries []generator.CorpusEntry

	// Durability state. done[i][p] marks unit (i,p) finished for checkpoint
	// purposes — completed, or degraded to a counted quarantine/timeout —
	// so restored units are skipped and only done units are persisted;
	// draws[i][p] is the unit's final PRNG draw count (a determinism
	// diagnostic the checkpoint records). Each cell is written by at most
	// one worker (deque pops are exclusive) or by restore before workers
	// start.
	done  [][]bool
	draws [][]uint64

	ckptDir      string
	inject       *faultinject.Injector
	unitTimeout  time.Duration
	strategyName string
	defenseName  string
	frontendName string
	epochs       int
	configFP     uint64
}

// RunCampaign executes the campaign on the engine. A context error stops
// all workers between test cases; whatever completed is aggregated and
// returned alongside the context's error. Unit failures likewise don't
// discard the campaign: errors are joined and partial results returned.
func RunCampaign(ctx context.Context, cfg Config) (*fuzzer.CampaignResult, error) {
	c, corpus, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	pool, err := executor.NewPool(c.base.Exec, c.base.DefenseFactory, c.workers)
	if err != nil {
		return nil, err
	}
	c.pool = pool
	startEpoch := 0
	if cfg.Resume {
		st, err := checkpoint.Load(c.ckptDir)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet; resume of a campaign that never started is
			// a fresh start.
		case err != nil:
			return nil, err
		default:
			if err := c.restore(st); err != nil {
				return nil, err
			}
			startEpoch = st.EpochsDone
		}
	}

	var errs []error
	epochsDone := startEpoch
	for e := startEpoch; e < c.epochs; e++ {
		var strat generator.Strategy = generator.Random{}
		if corpus {
			strat = generator.NewCorpusStrategy(c.entries)
		}
		lo, hi := epochBounds(c.programs, c.epochs, e)
		errs = append(errs, c.runEpoch(ctx, strat, lo, hi)...)
		if ctx.Err() != nil {
			// The epoch was interrupted: don't admit its (partial) results —
			// resume re-runs the missing units and admits the epoch whole.
			break
		}
		if corpus {
			c.admit(lo, hi)
		}
		epochsDone = e + 1
		if err := c.saveCheckpoint(epochsDone); err != nil {
			errs = append(errs, err)
		}
	}
	if ctx.Err() != nil {
		// Cancelled: the workers have drained; persist what they finished so
		// the campaign resumes where it died.
		if err := c.saveCheckpoint(epochsDone); err != nil {
			errs = append(errs, err)
		}
	}

	out := &fuzzer.CampaignResult{Instances: make([]*fuzzer.Result, c.instances)}
	for i := 0; i < c.instances; i++ {
		out.Instances[i] = mergeInstance(c.results[i], c.base.StopOnFirstViolation)
	}
	out.Elapsed = time.Since(c.start)
	out.Aggregate()
	return out, errors.Join(append(errs, ctx.Err())...)
}

// newCampaign validates cfg and builds the campaign bookkeeping shared by
// the in-process scheduler (RunCampaign) and the distributed dispatch layer
// (DistCampaign, UnitRunner): per-unit result/progress grids, stop-on-first
// cuts, strategy and epoch resolution, and the campaign identity
// fingerprint. It creates no executor pool and runs nothing.
func newCampaign(cfg Config) (*campaign, bool, error) {
	if cfg.Campaign.Instances < 1 {
		return nil, false, fmt.Errorf("engine: campaign needs at least one instance")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, false, fmt.Errorf("engine: Resume requires CheckpointDir")
	}
	base := cfg.Campaign.Base
	if err := base.Validate(); err != nil {
		return nil, false, err
	}
	corpus := false
	switch cfg.Strategy {
	case "", StrategyRandom:
		if cfg.Epochs > 1 {
			return nil, false, fmt.Errorf("engine: epochs require -strategy=corpus")
		}
	case StrategyCorpus:
		corpus = true
		base.Exec.Coverage = true
	default:
		return nil, false, fmt.Errorf("engine: unknown strategy %q (%s or %s)",
			cfg.Strategy, StrategyRandom, StrategyCorpus)
	}

	c := &campaign{
		base:        base,
		instances:   cfg.Campaign.Instances,
		programs:    base.Programs,
		start:       time.Now(),
		ckptDir:     cfg.CheckpointDir,
		inject:      cfg.Inject,
		unitTimeout: cfg.UnitTimeout,
	}
	c.strategyName = cfg.Strategy
	if c.strategyName == "" {
		c.strategyName = StrategyRandom
	}
	c.frontendName = base.ResolvedFrontend().Name()
	c.epochs = resolveEpochs(cfg, c.programs)
	if corpus {
		c.cover = uarch.NewCoverage()
		c.progs = make([][]isa.SourceProgram, c.instances)
		for i := range c.progs {
			c.progs[i] = make([]isa.SourceProgram, c.programs)
		}
	}

	c.workers = cfg.Workers
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	if n := c.instances * c.programs; c.workers > n {
		c.workers = n
	}
	c.stopAt = make([]atomic.Int64, c.instances)
	for i := range c.stopAt {
		c.stopAt[i].Store(math.MaxInt64)
	}
	c.results = make([][]*fuzzer.Result, c.instances)
	c.done = make([][]bool, c.instances)
	c.draws = make([][]uint64, c.instances)
	for i := range c.results {
		c.results[i] = make([]*fuzzer.Result, c.programs)
		c.done[i] = make([]bool, c.programs)
		c.draws[i] = make([]uint64, c.programs)
	}

	c.defenseName = base.DefenseFactory().Name()
	c.configFP = campaignFingerprint(base, c.defenseName, c.frontendName, c.instances, c.epochs, c.strategyName)
	return c, corpus, nil
}

// resolveEpochs resolves Config.Epochs exactly as RunCampaign does:
// random campaigns are one epoch, corpus campaigns default to
// DefaultEpochs and never exceed the program count.
func resolveEpochs(cfg Config, programs int) int {
	if cfg.Strategy != StrategyCorpus {
		return 1
	}
	epochs := cfg.Epochs
	if epochs < 1 {
		epochs = DefaultEpochs
	}
	if epochs > programs {
		epochs = programs
	}
	return epochs
}

// epochBounds returns the program-index range [lo, hi) of epoch e when
// programs are split into the given number of epochs (contiguous,
// near-equal chunks; every program belongs to exactly one epoch).
func epochBounds(programs, epochs, e int) (lo, hi int) {
	return e * programs / epochs, (e + 1) * programs / epochs
}

// runEpoch schedules the units of one epoch (program indices [lo, hi) of
// every instance) on the worker pool and waits for all of them — the
// barrier that makes the next epoch's corpus schedule-independent.
func (c *campaign) runEpoch(ctx context.Context, strat generator.Strategy, lo, hi int) []error {
	nUnits := c.instances * (hi - lo)
	if nUnits == 0 {
		return nil
	}
	workers := c.workers
	if workers > nUnits {
		workers = nUnits
	}

	// Deal units round-robin over the worker deques, in (instance,
	// program) order, so every worker starts with a spread of instances
	// and early steals are rare.
	deques := make([]*deque, workers)
	for w := range deques {
		deques[w] = &deque{}
	}
	k := 0
	for i := 0; i < c.instances; i++ {
		instSeed := fuzzer.InstanceSeed(c.base.Seed, i)
		for p := lo; p < hi; p++ {
			d := deques[k%workers]
			d.units = append(d.units, unit{inst: i, prog: p, seed: fuzzer.UnitSeed(instSeed, p)})
			k++
		}
	}

	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errCh <- c.runWorker(ctx, w, strat, deques)
		}(w)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// admit folds the epoch's coverage into the campaign-global map and admits
// corpus entries, scanning strictly in (instance, program) order so the
// corpus is identical at any worker count. A program is admitted when it
// contributed at least one new coverage feature or confirmed a violation.
// Under StopOnFirstViolation only programs up to the instance's
// deterministic cut (its lowest violating index — units beyond it may or
// may not have run) are considered.
func (c *campaign) admit(lo, hi int) {
	for i := 0; i < c.instances; i++ {
		cut := c.firstViolatingIndex(i, hi)
		for p := lo; p < hi; p++ {
			if c.base.StopOnFirstViolation && cut >= 0 && p > cut {
				break
			}
			res := c.results[i][p]
			prog := c.progs[i][p]
			if res == nil || prog == nil {
				continue
			}
			violating := len(res.Violations) > 0
			newBits := c.cover.Merge(res.Coverage)
			if newBits > 0 || violating {
				c.entries = append(c.entries, generator.CorpusEntry{
					Prog: prog, NewBits: newBits, Violating: violating,
				})
			}
		}
		// The window has been scanned; release the program references so
		// non-admitted programs don't stay live for the whole campaign
		// (admitted ones are retained by c.entries).
		for p := lo; p < hi; p++ {
			c.progs[i][p] = nil
		}
	}
}

// firstViolatingIndex returns instance i's lowest violating program index
// below hi, or -1. Every unit below that index is guaranteed to have run
// (the stop-at skip only ever cuts above it), which is what makes the cut
// deterministic.
func (c *campaign) firstViolatingIndex(i, hi int) int {
	for p := 0; p < hi; p++ {
		if r := c.results[i][p]; r != nil && len(r.Violations) > 0 {
			return p
		}
	}
	return -1
}

// runWorker drains its own deque and then steals until no work is left.
// It owns one pooled executor for its whole lifetime — unless a unit
// poisons it (panic or watchdog abandonment), in which case the executor is
// discarded and a fresh one acquired, and the campaign keeps going.
func (c *campaign) runWorker(ctx context.Context, w int, strat generator.Strategy, deques []*deque) error {
	exec, err := c.pool.Acquire(ctx)
	if err != nil {
		return err
	}
	defer func() { c.pool.Release(exec) }()
	tp := &contract.TracePool{} // worker-lifetime contract-trace recycling
	var errs []error
	for {
		if ctx.Err() != nil {
			break
		}
		u, ok := deques[w].popFront()
		for v := 1; !ok && v < len(deques); v++ {
			u, ok = deques[(w+v)%len(deques)].stealBack()
		}
		if !ok {
			break
		}
		if c.done[u.inst][u.prog] {
			continue // restored from a checkpoint; the result is already final
		}
		if int64(u.prog) > c.stopAt[u.inst].Load() {
			continue
		}
		out := c.runUnitIsolated(ctx, exec, strat, u, tp)
		if out.poison {
			// The executor went down with the unit (and, for an abandoned
			// wedged unit, the goroutine still holds the trace pool too);
			// replace both before touching any more work.
			c.pool.Discard(exec)
			tp = &contract.TracePool{}
			var aerr error
			if exec, aerr = c.pool.Acquire(ctx); aerr != nil {
				c.record(u, out)
				errs = append(errs, aerr)
				break
			}
		}
		c.record(u, out)
		if out.err != nil {
			var qe *QuarantineError
			if errors.As(out.err, &qe) {
				continue // isolated, bundled, and counted — not a campaign error
			}
			if errors.Is(out.err, ctx.Err()) && ctx.Err() != nil {
				break // reported once by RunCampaign
			}
			errs = append(errs, fmt.Errorf("engine: instance %d program %d: %w", u.inst, u.prog, out.err))
			continue
		}
		if c.base.StopOnFirstViolation && len(out.res.Violations) > 0 {
			for {
				cur := c.stopAt[u.inst].Load()
				if int64(u.prog) >= cur || c.stopAt[u.inst].CompareAndSwap(cur, int64(u.prog)) {
					break
				}
			}
		}
	}
	return errors.Join(errs...)
}

// record stores one unit's outcome. Only done units (completed or degraded
// to a counted quarantine/timeout) are marked for the checkpoint; a
// context-interrupted unit keeps its partial result for this run's report
// but re-runs in full on resume.
func (c *campaign) record(u unit, out unitOutcome) {
	c.results[u.inst][u.prog] = out.res
	if c.progs != nil {
		c.progs[u.inst][u.prog] = out.prog
	}
	if out.done {
		c.draws[u.inst][u.prog] = out.draws
		c.done[u.inst][u.prog] = true
	}
}

// runUnit runs the full stage pipeline of one work unit on the worker's
// executor, returning the unit-local result, the generated source program,
// and the unit's final PRNG draw count (metrics attributed by snapshot
// diff, since the executor is shared across this worker's units).
func (c *campaign) runUnit(ctx context.Context, exec *executor.Executor, strat generator.Strategy, u unit, tp *contract.TracePool) (*fuzzer.Result, isa.SourceProgram, uint64, error) {
	t0 := time.Now()
	before := exec.Metrics()
	res := &fuzzer.Result{}
	var prog isa.SourceProgram
	var draws uint64
	ug, err := fuzzer.NewUnitGenStrategy(c.base, u.seed, strat)
	if err == nil {
		ug.SetTracePool(tp)
		var pc *fuzzer.ProgramCase
		if pc, err = ug.Case(ctx, u.prog); err == nil {
			prog = pc.Source
			_, err = fuzzer.ExecuteCase(ctx, exec, c.base, pc, res, c.start)
		}
		draws = ug.Draws()
	}
	res.Elapsed = time.Since(t0)
	res.Metrics = exec.Metrics().Minus(before)
	return res, prog, draws, err
}

// mergeInstance folds one instance's unit results in program-index order.
// Under StopOnFirstViolation the deterministic cut is the lowest violating
// program index: units past it may or may not have run (the stop signal
// races with the workers), so their violations and coverage are dropped —
// only their counters are kept — making the violation set and the reported
// coverage independent of scheduling.
func mergeInstance(units []*fuzzer.Result, stopFirst bool) *fuzzer.Result {
	ir := &fuzzer.Result{}
	firstViol := -1
	if stopFirst {
		for p, ur := range units {
			if ur != nil && len(ur.Violations) > 0 {
				firstViol = p
				break
			}
		}
	}
	for p, ur := range units {
		if ur == nil {
			continue
		}
		if firstViol >= 0 && p > firstViol {
			trimmed := *ur
			trimmed.Violations = nil
			trimmed.Coverage = nil
			ir.Merge(&trimmed)
			continue
		}
		ir.Merge(ur)
	}
	return ir
}
