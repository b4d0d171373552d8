package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/defense/ghostminion"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/emu"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestSimEmuArchEquivalence is the core correctness check of the whole
// simulator: for random programs and inputs, the out-of-order core — with
// any defense attached, including their deliberately seeded bugs — must
// commit exactly the architectural state the functional emulator computes.
// Speculation, squashes, store bypassing, taint blocking and rollback may
// change *timing* and *µarch state* but never architectural results.
func TestSimEmuArchEquivalence(t *testing.T) {
	defenses := map[string]func() uarch.Defense{
		"baseline":    func() uarch.Defense { return uarch.NopDefense{} },
		"invisispec":  func() uarch.Defense { return invisispec.New(invisispec.Config{}) },
		"cleanupspec": func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) },
		"stt":         func() uarch.Defense { return stt.New(stt.Config{}) },
		"speclfb":     func() uarch.Defense { return speclfb.New(speclfb.Config{}) },
		"delayonmiss": func() uarch.Defense { return delayonmiss.New() },
		"ghostminion": func() uarch.Defense { return ghostminion.New() },
		"fenceall":    func() uarch.Defense { return fenceall.New() },
	}
	cfg := generator.DefaultConfig()
	cfg.Pages = 2
	for name, mk := range defenses {
		t.Run(name, func(t *testing.T) {
			gcfg := cfg
			gcfg.Seed = 12345
			g := generator.New(gcfg)
			sb := g.Sandbox()
			core := uarch.NewCore(uarch.DefaultConfig(), mk())
			for i := 0; i < 60; i++ {
				prog := g.Program()
				in := g.Input()

				if err := core.LoadTest(prog, sb); err != nil {
					t.Fatal(err)
				}
				core.ResetUarch()
				core.ResetForInput(in)
				if err := core.Run(); err != nil {
					t.Fatalf("program %d: %v\n%s", i, err, prog)
				}

				m := emu.New(prog, sb, in)
				if err := m.Run(100000); err != nil {
					t.Fatalf("program %d emulator: %v", i, err)
				}

				if core.Regs() != m.Regs {
					t.Fatalf("program %d: register files differ\nsim=%v\nemu=%v\n%s",
						i, core.Regs(), m.Regs, prog)
				}
				simMem, emuMem := core.Image().Bytes(), m.Mem.Bytes()
				for off := range simMem {
					if simMem[off] != emuMem[off] {
						t.Fatalf("program %d: memory differs at %#x: sim=%#x emu=%#x\n%s",
							i, off, simMem[off], emuMem[off], prog)
					}
				}
			}
		})
	}
}

// TestSimEquivalenceWithCarryover repeats the check with predictor and
// cache state carried across inputs (the Opt strategy): stale predictor
// state must never change architectural results either.
func TestSimEquivalenceWithCarryover(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 777
	g := generator.New(gcfg)
	sb := g.Sandbox()
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	for p := 0; p < 10; p++ {
		prog := g.Program()
		if err := core.LoadTest(prog, sb); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			in := g.Input()
			core.ResetForInput(in) // predictors and caches carry over
			if err := core.Run(); err != nil {
				t.Fatalf("program %d input %d: %v", p, k, err)
			}
			m := emu.New(prog, sb, in)
			if err := m.Run(100000); err != nil {
				t.Fatal(err)
			}
			if core.Regs() != m.Regs {
				t.Fatalf("program %d input %d: registers differ with carryover\n%s", p, k, prog)
			}
		}
	}
}

// TestSimDeterminism: identical (program, input, context) runs must yield
// identical cycle counts and µarch snapshots.
func TestSimDeterminism(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 31
	g := generator.New(gcfg)
	sb := g.Sandbox()
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	for i := 0; i < 20; i++ {
		prog := g.Program()
		in := g.Input()
		runOnce := func() (uint64, []uint64) {
			if err := core.LoadTest(prog, sb); err != nil {
				t.Fatal(err)
			}
			core.ResetUarch()
			core.ResetForInput(in)
			if err := core.Run(); err != nil {
				t.Fatal(err)
			}
			return core.EndCycle(), core.Hier.L1D.Snapshot()
		}
		end1, snap1 := runOnce()
		end2, snap2 := runOnce()
		if end1 != end2 {
			t.Fatalf("program %d: end cycles differ (%d vs %d)", i, end1, end2)
		}
		if len(snap1) != len(snap2) {
			t.Fatalf("program %d: snapshots differ", i)
		}
		for k := range snap1 {
			if snap1[k] != snap2[k] {
				t.Fatalf("program %d: snapshots differ at %d", i, k)
			}
		}
	}
}

// TestFenceSerializes checks that FENCE drains speculation: a load after a
// fence is never issued under a branch shadow.
func TestFenceSerializes(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),      // slow
		isa.CmpImm(1, 0),          //
		isa.Branch(isa.CondNE, 5), // arch taken, predicted not-taken
		isa.Fence(),               // wrong path: fence blocks further fetch
		isa.Load(2, 9, 0, 8),      // must never issue speculatively
		isa.Nop(),
	}}
	in := isa.NewInput(sb)
	in.Mem[0] = 1
	in.Regs[9] = 0x900

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	core.ResetUarch()
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	for _, la := range core.Hier.L1D.Snapshot() {
		if la == isa.DataBase+0x900 {
			t.Errorf("load behind a wrong-path FENCE reached the cache")
		}
	}
}

// schedDefenses is the defense sweep of the pipeline equivalence tests:
// every defense interacts with a different slice of the issue/writeback
// machinery (delays, sinks, squash work, taint propagation, the ROB/LSQ
// walks of SpecLFB and STT), so bit-identity must hold under all of them.
func schedDefenses() map[string]func() uarch.Defense {
	return map[string]func() uarch.Defense{
		"baseline":    func() uarch.Defense { return uarch.NopDefense{} },
		"invisispec":  func() uarch.Defense { return invisispec.New(invisispec.Config{}) },
		"cleanupspec": func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) },
		"stt":         func() uarch.Defense { return stt.New(stt.Config{}) },
		"speclfb":     func() uarch.Defense { return speclfb.New(speclfb.Config{}) },
		"delayonmiss": func() uarch.Defense { return delayonmiss.New() },
		"ghostminion": func() uarch.Defense { return ghostminion.New() },
		"fenceall":    func() uarch.Defense { return fenceall.New() },
	}
}

// compareCores runs the same test case on an optimized core and a core
// pinned to a reference path, and fails on any observable divergence:
// cycle count, stats, committed architectural state, both µarch-order
// traces, the full debug log and the L1D/D-TLB/L1I snapshots.
func compareCores(t *testing.T, tag string, opt, ref *uarch.Core, prog *isa.Program, sb isa.Sandbox, in *isa.Input) {
	t.Helper()
	run := func(c *uarch.Core) {
		t.Helper()
		if err := c.LoadTest(prog, sb); err != nil {
			t.Fatal(err)
		}
		c.ResetForInput(in)
		c.Log.Enabled = true
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", tag, err, prog)
		}
	}
	run(opt)
	run(ref)
	if opt.EndCycle() != ref.EndCycle() {
		t.Fatalf("%s: end cycle %d (optimized) vs %d (reference)\n%s", tag, opt.EndCycle(), ref.EndCycle(), prog)
	}
	if opt.Stats() != ref.Stats() {
		t.Fatalf("%s: stats differ\noptimized=%+v\nreference=%+v\n%s", tag, opt.Stats(), ref.Stats(), prog)
	}
	if opt.Regs() != ref.Regs() {
		t.Fatalf("%s: register files differ\n%s", tag, prog)
	}
	optLog, refLog := opt.Log.Recs, ref.Log.Recs
	if len(optLog) != len(refLog) {
		t.Fatalf("%s: %d log records (optimized) vs %d (reference)\noptimized:\n%sreference:\n%s\n%s",
			tag, len(optLog), len(refLog), opt.Log.String(), ref.Log.String(), prog)
	}
	for i := range optLog {
		if optLog[i] != refLog[i] {
			t.Fatalf("%s: log record %d differs: %v (optimized) vs %v (reference)\n%s",
				tag, i, optLog[i], refLog[i], prog)
		}
	}
	optAcc, refAcc := opt.AccessOrder(), ref.AccessOrder()
	if len(optAcc) != len(refAcc) {
		t.Fatalf("%s: access-order lengths differ (%d vs %d)\n%s", tag, len(optAcc), len(refAcc), prog)
	}
	for i := range optAcc {
		if optAcc[i] != refAcc[i] {
			t.Fatalf("%s: access-order record %d differs\n%s", tag, i, prog)
		}
	}
	optBr, refBr := opt.BranchOrder(), ref.BranchOrder()
	if len(optBr) != len(refBr) {
		t.Fatalf("%s: branch-order lengths differ\n%s", tag, prog)
	}
	for i := range optBr {
		if optBr[i] != refBr[i] {
			t.Fatalf("%s: branch-order record %d differs\n%s", tag, i, prog)
		}
	}
	for _, snap := range []struct {
		name     string
		opt, ref []uint64
	}{
		{"L1D", opt.Hier.L1D.Snapshot(), ref.Hier.L1D.Snapshot()},
		{"DTLB", opt.Hier.DTLB.Snapshot(), ref.Hier.DTLB.Snapshot()},
		{"L1I", opt.Hier.L1I.Snapshot(), ref.Hier.L1I.Snapshot()},
	} {
		if len(snap.opt) != len(snap.ref) {
			t.Fatalf("%s: %s snapshot sizes differ\n%s", tag, snap.name, prog)
		}
		for i := range snap.opt {
			if snap.opt[i] != snap.ref[i] {
				t.Fatalf("%s: %s snapshot differs at %d\n%s", tag, snap.name, i, prog)
			}
		}
	}
	if opt.BP.Snapshot() != ref.BP.Snapshot() {
		t.Fatalf("%s: branch-predictor digests differ\n%s", tag, prog)
	}
}
