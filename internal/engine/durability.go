package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// campaignFingerprint digests the campaign configuration into the identity
// a checkpoint (or quarantine bundle) is bound to. Resume refuses state
// whose fingerprint disagrees with the configured campaign: the determinism
// contract only holds for an identical configuration, so splicing restored
// units into a differently-configured run would silently produce garbage.
//
// The knobs pinned bit-identical by the determinism suite (FullPrime,
// FullDigest, NoScoreboard, NoCycleSkip, HeapFills, ReferenceModel) are zeroed before digesting: they change how fast a
// campaign runs, never what it produces, so a checkpoint written under one
// A/B setting resumes cleanly under the other. Exec.Coverage is likewise
// zeroed — it is derived from the strategy, which is digested by name. The
// frontend is digested by name too (the Config field is an interface whose
// rendering would be an unstable pointer).
func campaignFingerprint(base fuzzer.Config, defense, frontend string, instances, epochs int, strategy string) uint64 {
	exec := base.Exec
	exec.FullPrime, exec.FullDigest, exec.Coverage = false, false, false
	exec.Core.NoScoreboard, exec.Core.NoCycleSkip = false, false
	exec.Core.Hier.HeapFills = false
	mutRegs := "auto"
	if base.MutateRegs != nil {
		mutRegs = fmt.Sprint(*base.MutateRegs)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "contract=%+v|gen=%+v|exec=%+v|defense=%s|frontend=%s|seed=%d|programs=%d|baseinputs=%d|mutants=%d|mutregs=%s|refmodel=false|stopfirst=%t|maxviol=%d|instances=%d|epochs=%d|strategy=%s",
		base.Contract, base.Gen, exec, defense, frontend, base.Seed, base.Programs,
		base.BaseInputs, base.MutantsPerInput, mutRegs,
		base.StopOnFirstViolation, base.MaxViolationsPerProgram,
		instances, epochs, strategy)
	return h.Sum64()
}

// saveCheckpoint persists the campaign's progress: every done unit in
// (instance, program) order, plus the corpus state frozen at the last
// admitted epoch boundary. epochsDone is how many epochs have completed and
// been admitted; generated programs are retained only for done units of
// later epochs (they still await admission on resume). A no-op without a
// checkpoint directory.
func (c *campaign) saveCheckpoint(epochsDone int) error {
	if c.ckptDir == "" {
		return nil
	}
	st := &checkpoint.State{
		ConfigFP:   c.configFP,
		Seed:       c.base.Seed,
		Instances:  c.instances,
		Programs:   c.programs,
		Epochs:     c.epochs,
		Strategy:   c.strategyName,
		Frontend:   c.frontendName,
		EpochsDone: epochsDone,
	}
	pendingLo := c.programs
	if epochsDone < c.epochs {
		pendingLo, _ = epochBounds(c.programs, c.epochs, epochsDone)
	}
	for i := 0; i < c.instances; i++ {
		for p := 0; p < c.programs; p++ {
			if !c.done[i][p] {
				continue
			}
			rec := checkpoint.UnitRec{
				Inst:     i,
				Prog:     p,
				RNGDraws: c.draws[i][p],
				Result:   checkpoint.EncodeResult(c.results[i][p]),
			}
			if c.progs != nil && p >= pendingLo && c.progs[i][p] != nil {
				src, err := checkpoint.EncodeProg(c.progs[i][p])
				if err != nil {
					return err
				}
				rec.GenSrc = src
			}
			st.Units = append(st.Units, rec)
		}
	}
	if c.cover != nil {
		st.Coverage = c.cover.Words()
		for _, e := range c.entries {
			src, err := checkpoint.EncodeProg(e.Prog)
			if err != nil {
				return err
			}
			st.Corpus = append(st.Corpus, checkpoint.CorpusRec{
				Src: src, NewBits: e.NewBits, Violating: e.Violating,
			})
		}
	}
	return checkpoint.Save(c.ckptDir, st, c.inject)
}

// restore splices a loaded checkpoint into the campaign: identity check,
// per-unit results/progress/programs, corpus entries and merged coverage,
// and the re-derived stop-on-first cuts. The caller then starts the epoch
// loop at st.EpochsDone; workers skip done units, so a resumed campaign
// runs exactly the units the interrupted one never finished.
func (c *campaign) restore(st *checkpoint.State) error {
	if st.ConfigFP != c.configFP {
		return fmt.Errorf("engine: checkpoint was written by a different campaign configuration (fingerprint %016x, configured %016x)",
			st.ConfigFP, c.configFP)
	}
	if st.Frontend != c.frontendName {
		return fmt.Errorf("engine: checkpoint was written by the %q ISA frontend, campaign is configured for %q — refusing to replay units under the wrong decoder",
			st.Frontend, c.frontendName)
	}
	if st.Seed != c.base.Seed || st.Instances != c.instances ||
		st.Programs != c.programs || st.Epochs != c.epochs || st.Strategy != c.strategyName {
		return fmt.Errorf("engine: checkpoint shape (seed=%d %dx%d epochs=%d %s) does not match campaign (seed=%d %dx%d epochs=%d %s)",
			st.Seed, st.Instances, st.Programs, st.Epochs, st.Strategy,
			c.base.Seed, c.instances, c.programs, c.epochs, c.strategyName)
	}
	for _, u := range st.Units {
		if u.Inst < 0 || u.Inst >= c.instances || u.Prog < 0 || u.Prog >= c.programs {
			return fmt.Errorf("engine: checkpoint unit (%d,%d) out of campaign bounds %dx%d: %w",
				u.Inst, u.Prog, c.instances, c.programs, checkpoint.ErrCorrupt)
		}
		c.results[u.Inst][u.Prog] = u.Result.Decode()
		c.done[u.Inst][u.Prog] = true
		c.draws[u.Inst][u.Prog] = u.RNGDraws
		if c.progs != nil && u.GenSrc != nil {
			src, err := u.GenSrc.Decode()
			if err != nil {
				return fmt.Errorf("engine: checkpoint unit (%d,%d): %v: %w",
					u.Inst, u.Prog, err, checkpoint.ErrCorrupt)
			}
			c.progs[u.Inst][u.Prog] = src
		}
	}
	if c.cover != nil {
		c.cover.LoadWords(st.Coverage)
		for _, r := range st.Corpus {
			src, err := r.Src.Decode()
			if err != nil {
				return fmt.Errorf("engine: checkpoint corpus entry: %v: %w", err, checkpoint.ErrCorrupt)
			}
			c.entries = append(c.entries, generator.CorpusEntry{
				Prog: src, NewBits: r.NewBits, Violating: r.Violating,
			})
		}
	}
	if c.base.StopOnFirstViolation {
		for i := 0; i < c.instances; i++ {
			if p := c.firstViolatingIndex(i, c.programs); p >= 0 {
				c.stopAt[i].Store(int64(p))
			}
		}
	}
	return nil
}

// QuarantineError reports a work unit whose pipeline panicked. The engine
// converts the panic into this error, writes a repro bundle, counts the
// unit in Metrics.Quarantined, and keeps the campaign going on a fresh
// executor; ReplayUnit returns it when a bundle reproduces its fault.
type QuarantineError struct {
	Inst, Prog int
	Value      string // the recovered panic value, rendered
	Stack      string // the panicking goroutine's stack
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("engine: unit (%d,%d) quarantined: panic: %s", e.Inst, e.Prog, e.Value)
}

// unitOutcome is what the isolation layer hands back to the worker loop.
type unitOutcome struct {
	res   *fuzzer.Result
	prog  isa.SourceProgram
	draws uint64
	err   error
	// done marks the unit finished for checkpoint purposes: completed, or
	// degraded to a counted quarantine/timeout that resume must not re-run.
	done bool
	// poison marks the worker's executor unfit for reuse — it panicked
	// mid-simulation or is still owned by an abandoned wedged goroutine.
	// The worker discards it (and its trace pool) and acquires fresh ones.
	poison bool
}

// runUnitIsolated runs one unit behind the fault-isolation layer: panics
// are quarantined (runUnitGuarded), and when a unit watchdog is configured
// the unit runs on its own goroutine with a deadline — a wedged unit is
// abandoned and degraded to a counted timeout instead of hanging the
// campaign. With no watchdog (the default) the unit runs inline on the
// worker goroutine and the only overhead is a deferred recover.
func (c *campaign) runUnitIsolated(ctx context.Context, exec *executor.Executor, strat generator.Strategy, u unit, tp *contract.TracePool) unitOutcome {
	if c.unitTimeout <= 0 {
		return c.runUnitGuarded(ctx, exec, strat, u, tp)
	}
	ch := make(chan unitOutcome, 1)
	go func() { ch <- c.runUnitGuarded(ctx, exec, strat, u, tp) }()
	timer := time.NewTimer(c.unitTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		// The unit goroutine may be wedged forever; it is abandoned with
		// everything it references (executor, trace pool) rather than
		// interrupted — simulation has no preemption points to cancel at.
		c.quarantine(u, checkpoint.BundleTimeout, fmt.Sprintf("unit exceeded %v watchdog deadline", c.unitTimeout), "")
		res := &fuzzer.Result{}
		res.Metrics.TimedOut = 1
		return unitOutcome{res: res, done: true, poison: true}
	}
}

// runUnitGuarded runs one unit with panic quarantine: a panic anywhere in
// the generate → collect → execute → validate pipeline is recovered,
// written out as a repro bundle, and degraded to a counted-quarantine
// result carrying a *QuarantineError.
func (c *campaign) runUnitGuarded(ctx context.Context, exec *executor.Executor, strat generator.Strategy, u unit, tp *contract.TracePool) (out unitOutcome) {
	defer func() {
		if r := recover(); r != nil {
			qe := &QuarantineError{
				Inst:  u.inst,
				Prog:  u.prog,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
			c.quarantine(u, checkpoint.BundlePanic, qe.Value, qe.Stack)
			res := &fuzzer.Result{}
			res.Metrics.Quarantined = 1
			out = unitOutcome{res: res, err: qe, done: true, poison: true}
		}
	}()
	c.inject.UnitStart(u.inst, u.prog)
	res, prog, draws, err := c.runUnit(ctx, exec, strat, u, tp)
	return unitOutcome{res: res, prog: prog, draws: draws, err: err, done: err == nil}
}

// quarantine writes a repro bundle for a degraded unit. Best effort: the
// campaign has already isolated the fault, and a bundle-write failure (or
// the absence of a checkpoint directory) must not escalate it.
func (c *campaign) quarantine(u unit, kind, value, stack string) {
	if c.ckptDir == "" {
		return
	}
	_, _ = checkpoint.SaveBundle(c.ckptDir, &checkpoint.Bundle{
		ConfigFP: c.configFP,
		Defense:  c.defenseName,
		Contract: c.base.Contract.Name,
		Frontend: c.frontendName,
		Seed:     c.base.Seed,
		Inst:     u.inst,
		Prog:     u.prog,
		Kind:     kind,
		Value:    value,
		Stack:    stack,
	}, c.inject)
}

// ReplayUnit re-runs the work unit a quarantine bundle describes,
// standalone, against the same campaign configuration (cfg must be the
// campaign's engine config; the bundle's fingerprint is checked). Units are
// seed-deterministic, so the replay drives the identical generate →
// collect → execute pipeline the quarantined worker ran; if the fault
// reproduces, the returned error is the *QuarantineError describing it.
// inj (nil outside tests) lets the fault-injection suite re-arm the
// original injected fault.
//
// Replay uses the blind generation strategy; for corpus-strategy campaigns
// only first-epoch units (generated before any corpus existed) are
// guaranteed to replay bit-identically.
func ReplayUnit(ctx context.Context, cfg Config, b *checkpoint.Bundle, inj *faultinject.Injector) (*fuzzer.Result, error) {
	base := cfg.Campaign.Base
	if err := base.Validate(); err != nil {
		return nil, err
	}
	instances := cfg.Campaign.Instances
	if instances < 1 {
		instances = 1
	}
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = StrategyRandom
	}
	epochs := resolveEpochs(cfg, base.Programs)
	defense := base.DefenseFactory().Name()
	frontend := base.ResolvedFrontend().Name()
	if b.Frontend != "" && b.Frontend != frontend {
		return nil, fmt.Errorf("engine: bundle was captured on the %q ISA frontend, campaign is configured for %q — refusing to replay the unit under the wrong decoder",
			b.Frontend, frontend)
	}
	fp := campaignFingerprint(base, defense, frontend, instances, epochs, strategy)
	if fp != b.ConfigFP {
		return nil, fmt.Errorf("engine: bundle was captured under a different campaign configuration (fingerprint %016x, configured %016x)",
			b.ConfigFP, fp)
	}
	if b.Inst < 0 || b.Inst >= instances || b.Prog < 0 || b.Prog >= base.Programs {
		return nil, fmt.Errorf("engine: bundle unit (%d,%d) out of campaign bounds %dx%d",
			b.Inst, b.Prog, instances, base.Programs)
	}
	if strategy == StrategyCorpus {
		base.Exec.Coverage = true
	}
	pool, err := executor.NewPool(base.Exec, base.DefenseFactory, 1)
	if err != nil {
		return nil, err
	}
	exec, err := pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		base:         base,
		instances:    instances,
		programs:     base.Programs,
		start:        time.Now(),
		inject:       inj,
		configFP:     fp,
		defenseName:  defense,
		frontendName: frontend,
	}
	u := unit{
		inst: b.Inst,
		prog: b.Prog,
		seed: fuzzer.UnitSeed(fuzzer.InstanceSeed(base.Seed, b.Inst), b.Prog),
	}
	var strat generator.Strategy = generator.Random{}
	if strategy == StrategyCorpus {
		strat = generator.NewCorpusStrategy(nil)
	}
	out := c.runUnitGuarded(ctx, exec, strat, u, &contract.TracePool{})
	return out.res, out.err
}
