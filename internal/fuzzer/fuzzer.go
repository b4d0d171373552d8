// Package fuzzer is AMuLeT-Go's core: it orchestrates the test generator,
// the leakage model and the executor into a model-based relational testing
// loop that searches for contract violations (Definition 2.1): pairs of
// inputs with identical contract traces but different micro-architectural
// traces.
//
// The loop is decomposed into program-level stages — generate and
// contract-model collect (UnitGen.Case), then µarch execute, compare and
// validate (ExecuteCase). The package holds the stages and the campaign
// configuration and result types; internal/engine is the one campaign
// driver that schedules the stages across a worker pool (one worker is the
// paper's serial layout).
package fuzzer

import (
	"context"
	"fmt"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Config configures one fuzzing instance. Campaigns run many instances in
// parallel with distinct seeds (paper §4.1).
type Config struct {
	Contract contract.Contract
	Gen      generator.Config
	Exec     executor.Config

	// Frontend selects the source ISA programs are generated on
	// (isa.Frontend). Nil selects the toy register frontend — the paper's
	// setup, bit-identical to the pre-frontend pipeline. The frontend only
	// touches the generation stage: execution always runs the lowered µop
	// program.
	Frontend isa.Frontend

	// DefenseFactory builds the defense instance for this fuzzer's core.
	DefenseFactory func() uarch.Defense

	Seed     int64
	Programs int // test programs to generate
	// BaseInputs and MutantsPerInput multiply to the inputs per program
	// (the paper uses 140 inputs per program).
	BaseInputs      int
	MutantsPerInput int

	// MutateRegs lets mutants vary architecturally dead registers
	// (register-borne secrets); campaigns against contracts that observe
	// the register file leave it off. When unset it defaults to the
	// complement of the contract's ObserveInitRegs.
	MutateRegs *bool

	// ReferenceModel pins the leakage model's reference path: contract
	// traces are collected by driving the generic functional emulator
	// through its hook interface. By default the model runs its specialized
	// interpreter instead — the program predecoded once into micro-ops with
	// pre-resolved ALU kinds and usage masks, observations appended inline
	// (contract/fastmodel.go). The two are bit-identical (same traces, same
	// usage, pinned by TestFastModelEquivalence and the determinism sweep);
	// like Exec.FullPrime, this knob exists only for regression pinning and
	// A/B measurement.
	ReferenceModel bool

	// StopOnFirstViolation ends the campaign at the first confirmed
	// violation (the paper's detection-time experiments).
	StopOnFirstViolation bool

	// MaxViolationsPerProgram bounds recorded violations per program to
	// keep pathological programs from flooding the report. Zero = 4.
	MaxViolationsPerProgram int
}

// Validate reports configuration problems. Campaign entry points
// (NewUnitGen, engine.RunCampaign) call it on entry.
func (c Config) Validate() error {
	if c.Programs < 1 || c.BaseInputs < 1 || c.MutantsPerInput < 0 {
		return fmt.Errorf("fuzzer: bad campaign sizes (programs=%d, base=%d, mutants=%d)",
			c.Programs, c.BaseInputs, c.MutantsPerInput)
	}
	if c.DefenseFactory == nil {
		return fmt.Errorf("fuzzer: DefenseFactory is required")
	}
	if err := c.Gen.Validate(); err != nil {
		return err
	}
	return c.Exec.Core.Validate()
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MaxViolationsPerProgram == 0 {
		c.MaxViolationsPerProgram = 4
	}
	c.Frontend = c.ResolvedFrontend()
	return c
}

// ResolvedFrontend returns the configured frontend, defaulting to the toy
// register frontend. The engine uses it to stamp checkpoint and bundle
// identities without mutating the config.
func (c Config) ResolvedFrontend() isa.Frontend {
	if c.Frontend == nil {
		return isa.Toy
	}
	return c.Frontend
}

// mutateRegs resolves the register-mutation policy against the contract.
func (c Config) mutateRegs() bool {
	if c.MutateRegs != nil {
		return *c.MutateRegs
	}
	return !c.Contract.ObserveInitRegs
}

// Violation is one confirmed contract violation: two contract-equivalent
// inputs with different µarch traces, surviving the fresh-context
// validation re-run.
type Violation struct {
	Defense  string
	Contract string
	// Frontend names the ISA frontend the program was generated on; Source
	// is the frontend-level source program (for the toy frontend it is the
	// µop Program itself). Program is always the lowered µop program the
	// simulator executed — replays and fingerprints operate on it.
	Frontend string
	Source   isa.SourceProgram
	Program  *isa.Program
	Sandbox  isa.Sandbox
	InputA   *isa.Input
	InputB   *isa.Input
	CTrace   contract.Trace
	TraceA   *executor.UTrace
	TraceB   *executor.UTrace

	ProgramIndex int
	DetectedAt   time.Duration // since campaign start
}

// Result summarizes one fuzzing instance.
type Result struct {
	Violations []*Violation
	TestCases  int
	Programs   int
	Elapsed    time.Duration
	Metrics    executor.Metrics

	// ValidationRuns counts fresh-context re-runs triggered by µarch trace
	// mismatches (including those that turned out to be predictor-state
	// artifacts).
	ValidationRuns int
	// RejectedMutants counts mutation attempts the model refused.
	RejectedMutants int

	// Coverage is the union of the speculation-coverage features observed
	// while executing this result's programs. Nil unless the executor ran
	// with coverage collection enabled (corpus-strategy campaigns).
	Coverage *uarch.Coverage

	// GenTime is time spent generating programs and inputs; ModelTime is
	// time spent collecting contract traces (leakage-model execution,
	// including mutation verification). Together with the executor metrics
	// these give the paper's Table 2 breakdown.
	GenTime   time.Duration
	ModelTime time.Duration
}

// Merge accumulates other into r (violations appended in call order;
// Elapsed summed). The engine uses it to fold per-program work-unit
// results into per-instance results in program-index order.
func (r *Result) Merge(other *Result) {
	r.Violations = append(r.Violations, other.Violations...)
	r.TestCases += other.TestCases
	r.Programs += other.Programs
	r.Elapsed += other.Elapsed
	r.Metrics.Add(other.Metrics)
	r.ValidationRuns += other.ValidationRuns
	r.RejectedMutants += other.RejectedMutants
	r.GenTime += other.GenTime
	r.ModelTime += other.ModelTime
	if other.Coverage != nil {
		if r.Coverage == nil {
			r.Coverage = uarch.NewCoverage()
		}
		r.Coverage.Merge(other.Coverage)
	}
}

// FirstDetection returns the earliest detection time across the recorded
// violations, and whether one exists. The minimum (not Violations[0]) is
// taken because the engine orders violations by program index, not by
// detection time.
func (r *Result) FirstDetection() (time.Duration, bool) {
	if len(r.Violations) == 0 {
		return 0, false
	}
	first := r.Violations[0].DetectedAt
	for _, v := range r.Violations[1:] {
		if v.DetectedAt < first {
			first = v.DetectedAt
		}
	}
	return first, true
}

// InputClass is one contract-equivalence class: inputs whose contract
// traces are identical.
type InputClass struct {
	CTrace contract.Trace
	Inputs []*isa.Input

	// retained marks the class trace as referenced by a recorded Violation,
	// excluding it from the post-execution recycle into the trace pool.
	retained bool
}

// ProgramCase is the output of the generate and contract-model-collect
// stages for one test program: the program, its sandbox, and its inputs
// (bases plus verified contract-preserving mutants) grouped into
// contract-equivalence classes in deterministic first-seen order.
type ProgramCase struct {
	Index int
	// Source is the frontend-level program; Prog its µop lowering (the same
	// object on the toy frontend).
	Source  isa.SourceProgram
	Prog    *isa.Program
	SB      isa.Sandbox
	Classes []*InputClass

	GenTime         time.Duration
	ModelTime       time.Duration
	RejectedMutants int
	// Truncations counts this program's leakage-model runs (base-input
	// collections and mutant verifications) that hit contract.MaxSteps
	// before exiting; ExecuteCase folds it into the executor metrics.
	Truncations int

	// pool, when non-nil, recycles the class traces once ExecuteCase has
	// compared (and possibly retained) them.
	pool *contract.TracePool
}

// mutatorSeedMix decorrelates the mutator stream from the generator stream
// derived from the same seed.
const mutatorSeedMix = 0x5eed

// UnitGen owns the generation-side state (generator and mutator streams,
// plus the generation strategy) of one program-level work unit. Every unit
// gets an independent stream derived from the campaign seed (see UnitSeed),
// so the engine can build cases in any order on any worker and still
// produce a deterministic campaign.
type UnitGen struct {
	cfg   Config
	gen   *generator.Generator
	mut   *generator.Mutator
	strat generator.Strategy
	tp    *contract.TracePool
}

// NewUnitGen builds the generation state for one work unit with the blind
// Random strategy (the seed campaigns' exact behaviour).
func NewUnitGen(cfg Config, seed int64) (*UnitGen, error) {
	return NewUnitGenStrategy(cfg, seed, generator.Random{})
}

// NewUnitGenStrategy builds the generation state for one work unit with an
// explicit strategy. Corpus strategies must be frozen (read-only) for the
// unit's whole epoch; the engine guarantees this.
func NewUnitGenStrategy(cfg Config, seed int64, strat generator.Strategy) (*UnitGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strat == nil {
		strat = generator.Random{}
	}
	cfg = cfg.withDefaults()
	genCfg := cfg.Gen
	genCfg.Seed = seed
	return &UnitGen{
		cfg:   cfg,
		gen:   generator.NewFor(genCfg, cfg.Frontend),
		mut:   generator.NewMutator(seed^mutatorSeedMix, cfg.mutateRegs()),
		strat: strat,
	}, nil
}

// SetTracePool attaches a contract-trace recycle pool. Engine workers own
// one pool each and hand it to every unit they run, so trace buffers are
// reused across the worker's whole campaign even though the UnitGen itself
// is per-unit state.
func (u *UnitGen) SetTracePool(tp *contract.TracePool) { u.tp = tp }

// Draws returns the combined draw count of the unit's generation and
// mutation PRNG streams. Campaign checkpoints record it per completed work
// unit as a determinism diagnostic: a resumed campaign that replays a unit
// must land on the same count, or the unit did not do the same work.
func (u *UnitGen) Draws() uint64 { return u.gen.Draws() + u.mut.Draws() }

// Case runs the generate + collect stages for program pIdx, drawing from
// the unit's generator and mutator streams through its generation
// strategy. Only the streams, the strategy's frozen corpus and the contract
// decide the outcome — never the µarch execution — so the generation side
// of a campaign is deterministic in isolation.
func (u *UnitGen) Case(ctx context.Context, pIdx int) (*ProgramCase, error) {
	gen, mut, tp := u.gen, u.mut, u.tp
	pc := &ProgramCase{Index: pIdx, pool: tp}
	t0 := time.Now()
	pc.Source = u.strat.NewProgram(gen)
	pc.Prog = gen.Frontend().Lower(pc.Source)
	pc.SB = gen.Sandbox()
	pc.GenTime += time.Since(t0)
	model := contract.NewModel(u.cfg.Contract, pc.Prog, pc.SB)
	model.SetReference(u.cfg.ReferenceModel)

	classes := make(map[uint64]*InputClass)
	var order []uint64
	for b := 0; b < u.cfg.BaseInputs; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		base := gen.Input()
		pc.GenTime += time.Since(t0)
		t1 := time.Now()
		ctrace, usage := model.CollectInto(base, tp.Get())
		h := ctrace.Hash()
		cls, ok := classes[h]
		if !ok {
			cls = &InputClass{CTrace: ctrace}
			classes[h] = cls
			order = append(order, h)
		}
		cls.Inputs = append(cls.Inputs, base)
		for m := 0; m < u.cfg.MutantsPerInput; m++ {
			mutant, ok := mut.Mutate(model, base, usage, ctrace)
			if !ok {
				pc.RejectedMutants++
				continue
			}
			cls.Inputs = append(cls.Inputs, mutant)
		}
		if ok {
			// Duplicate of an existing class: the mutation loop above was
			// the buffer's last reader, so it goes back to the pool.
			tp.Put(ctrace)
		}
		pc.ModelTime += time.Since(t1)
	}
	for _, h := range order {
		pc.Classes = append(pc.Classes, classes[h])
	}
	pc.Truncations = model.Truncated()
	return pc, nil
}

// ExecuteCase runs the µarch execute → compare → validate stages of one
// program case on exec, accumulating test counts and confirmed violations
// into res. DetectedAt stamps are relative to start. It reports whether at
// least one confirmed violation was found; on a context error it returns
// what it accumulated so far plus the context's error.
func ExecuteCase(ctx context.Context, exec *executor.Executor, cfg Config, pc *ProgramCase, res *Result, start time.Time) (bool, error) {
	cfg = cfg.withDefaults()
	if err := exec.LoadProgram(pc.Prog, pc.SB); err != nil {
		return false, err
	}
	if cov := exec.Coverage(); cov != nil {
		// Per-case coverage: cleared here (after the LoadProgram startup,
		// whose checkpoint restore is not signal) and folded into the
		// result on every exit path, so each work unit reports exactly the
		// features its own program exercised.
		exec.ResetCoverage()
		defer func() {
			if res.Coverage == nil {
				res.Coverage = uarch.NewCoverage()
			}
			res.Coverage.Merge(cov)
		}()
	}
	defer func() {
		// The class traces have served their purpose (compared, and copied
		// into violations by reference where retained): recycle the rest.
		if pc.pool == nil {
			return
		}
		for _, cls := range pc.Classes {
			if !cls.retained && cls.CTrace != nil {
				pc.pool.Put(cls.CTrace)
				cls.CTrace = nil
			}
		}
	}()
	res.Programs++
	res.GenTime += pc.GenTime
	res.ModelTime += pc.ModelTime
	res.RejectedMutants += pc.RejectedMutants
	exec.CountTruncations(pc.Truncations)
	defName := exec.Core().Defense().Name()

	found := false
	violations := 0
	// traces is the per-class trace scratch; every trace in it goes back to
	// the executor's recycle list once the class has been compared (the
	// violation report only retains the validation replay's traces).
	maxClass := 0
	for _, cls := range pc.Classes {
		if len(cls.Inputs) > maxClass {
			maxClass = len(cls.Inputs)
		}
	}
	traces := make([]*executor.UTrace, 0, maxClass)
	for _, cls := range pc.Classes {
		traces = traces[:0]
		for _, in := range cls.Inputs {
			if err := ctx.Err(); err != nil {
				return found, err
			}
			tr, err := exec.Run(in)
			if err != nil {
				return found, fmt.Errorf("fuzzer: program %d: %w", pc.Index, err)
			}
			res.TestCases++
			traces = append(traces, tr)
		}
		i, j, differ := 0, 0, false
		if violations < cfg.MaxViolationsPerProgram {
			i, j, differ = firstDiffPair(traces)
		}
		for _, tr := range traces {
			exec.ReleaseTrace(tr)
		}
		if !differ {
			continue
		}
		ok, trA, trB, err := validatePair(exec, cls.Inputs[i], cls.Inputs[j], res)
		if err != nil {
			return found, err
		}
		if !ok {
			continue
		}
		cls.retained = true
		res.Violations = append(res.Violations, &Violation{
			Defense:      defName,
			Contract:     cfg.Contract.Name,
			Frontend:     cfg.Frontend.Name(),
			Source:       pc.Source,
			Program:      pc.Prog,
			Sandbox:      pc.SB,
			InputA:       cls.Inputs[i],
			InputB:       cls.Inputs[j],
			CTrace:       cls.CTrace,
			TraceA:       trA,
			TraceB:       trB,
			ProgramIndex: pc.Index,
			DetectedAt:   time.Since(start),
		})
		violations++
		found = true
		if cfg.StopOnFirstViolation {
			return true, nil
		}
	}
	return found, nil
}

// firstDiffPair returns the indices of the first differing trace pair.
// Comparison is hash-first (cached digests), falling back to the exact
// Equal walk only when digests match, so the common all-equal class costs
// one digest per trace instead of a full pairwise trace walk.
func firstDiffPair(traces []*executor.UTrace) (int, int, bool) {
	for i := 1; i < len(traces); i++ {
		if traces[0].Differs(traces[i]) {
			return 0, i, true
		}
	}
	return 0, 0, false
}

// validatePair re-runs both inputs from an identical captured
// micro-architectural context. Only a persisting difference is a real
// input-dependent leak; differences caused by the different predictor
// state the Opt strategy carried into the two original runs disappear here
// (paper §3.2, validation of AMuLeT-Opt violations). Traces of replays
// that do not confirm a violation are recycled.
func validatePair(exec *executor.Executor, a, b *isa.Input, res *Result) (bool, *executor.UTrace, *executor.UTrace, error) {
	res.ValidationRuns++
	trA, trB, err := exec.RunValidationPair(a, b)
	if err != nil {
		return false, nil, nil, err
	}
	res.TestCases += 3
	if trA.Equal(trB) {
		exec.ReleaseTrace(trA)
		exec.ReleaseTrace(trB)
		return false, nil, nil, nil
	}
	return true, trA, trB, nil
}
