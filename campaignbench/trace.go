package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// span is one timed call the benchmark made into the program. Spans of one
// work unit share Unit; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit,omitempty"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, which is the untraced path. It is used from one
// goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	units int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, label string, parent, unit int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Unit: unit,
		Name: name, Label: label, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// newUnit returns a fresh work-unit ID.
func (t *tracer) newUnit() int {
	if t == nil {
		return 0
	}
	t.units++
	return t.units
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bootExecutor brings a fresh pooled executor of the campaign's
// configuration to its booted state: Pool.Acquire builds the simulator and
// the first LoadProgram runs the boot workload. It returns the executor and
// the host time taken.
func bootExecutor(ctx context.Context, base fuzzer.Config, prog *isa.Program, sb isa.Sandbox, tr *tracer, parent int) (*executor.Executor, time.Duration, error) {
	sp := tr.begin("executor.Pool.Acquire", base.DefenseFactory().Name(), parent, 0)
	t0 := time.Now()
	pool, err := executor.NewPool(base.Exec, base.DefenseFactory, 1)
	if err != nil {
		return nil, 0, err
	}
	exec, err := pool.Acquire(ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := exec.LoadProgram(prog, sb); err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	tr.end(sp)
	return exec, d, nil
}

// firstCase generates program 0 of the campaign's first unit, the program
// set-up loads to trigger the boot.
func firstCase(ctx context.Context, ccfg fuzzer.CampaignConfig) (*fuzzer.ProgramCase, error) {
	ug, err := fuzzer.NewUnitGen(ccfg.Base, fuzzer.UnitSeed(fuzzer.InstanceSeed(ccfg.Base.Seed, 0), 0))
	if err != nil {
		return nil, err
	}
	return ug.Case(ctx, 0)
}

// replayStats are the executor counters and violations of a serial replay.
type replayStats struct {
	violations []*fuzzer.Violation
	met        executor.Metrics // accumulated over the units, boot excluded
}

// replay runs every unit of a random-strategy campaign serially, in
// (instance, program) order, through the same public stage API the
// engine's workers use: fuzzer.NewUnitGenStrategy + UnitGen.Case, then
// fuzzer.ExecuteCase on a pooled executor, with the seeds from
// fuzzer.InstanceSeed/UnitSeed. The engine's determinism contract makes
// the replay's violation set identical to the engine run's.
func replay(ctx context.Context, ccfg fuzzer.CampaignConfig, tr *tracer, parent int) (*replayStats, error) {
	base := ccfg.Base
	root := tr.begin("bench.replay", base.DefenseFactory().Name(), parent, 0)
	defer tr.end(root)
	pc0, err := firstCase(ctx, ccfg)
	if err != nil {
		return nil, err
	}
	exec, _, err := bootExecutor(ctx, base, pc0.Prog, pc0.SB, tr, root)
	if err != nil {
		return nil, err
	}
	booted := exec.Metrics()
	tp := &contract.TracePool{}
	start := time.Now()
	out := &replayStats{}
	for i := 0; i < ccfg.Instances; i++ {
		instSeed := fuzzer.InstanceSeed(base.Seed, i)
		for p := 0; p < base.Programs; p++ {
			id := tr.newUnit()
			us := tr.begin("bench.unit", "", root, id)
			ug, err := fuzzer.NewUnitGenStrategy(base, fuzzer.UnitSeed(instSeed, p), generator.Random{})
			if err != nil {
				return nil, err
			}
			ug.SetTracePool(tp)
			cs := tr.begin("fuzzer.case", "", us, id)
			pc, err := ug.Case(ctx, p)
			tr.end(cs)
			if err != nil {
				return nil, err
			}
			res := &fuzzer.Result{}
			es := tr.begin("fuzzer.execute", "", us, id)
			_, err = fuzzer.ExecuteCase(ctx, exec, base, pc, res, start)
			tr.end(es)
			tr.end(us)
			if err != nil {
				return nil, fmt.Errorf("replay instance %d program %d: %w", i, p, err)
			}
			out.violations = append(out.violations, res.Violations...)
		}
	}
	out.met = exec.Metrics().Minus(booted)
	return out, nil
}

// checkFingerprint compares an engine run's violation set with its serial
// replay's.
func checkFingerprint(engineVs, replayVs []*fuzzer.Violation) error {
	e, r := fuzzer.ViolationFingerprint(engineVs), fuzzer.ViolationFingerprint(replayVs)
	if e != r {
		return fmt.Errorf("violation fingerprint mismatch: engine %#016x (%d violations), serial replay %#016x (%d violations)",
			e, len(engineVs), r, len(replayVs))
	}
	return nil
}
