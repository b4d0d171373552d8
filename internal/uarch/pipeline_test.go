package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func runProg(t *testing.T, prog *isa.Program, in *isa.Input, pages int) *uarch.Core {
	t.Helper()
	sb := isa.Sandbox{Pages: pages}
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	core.ResetUarch()
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	return core
}

// TestStoreToLoadForwarding: a load fully covered by an older in-flight
// store receives the store's data without a cache access.
func TestStoreToLoadForwarding(t *testing.T) {
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0xabcd),
		isa.Store(0, 64, 1, 8),
		isa.Load(2, 0, 64, 8), // forwarded from the store
	}}
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	core := runProg(t, prog, in, 1)
	if core.Regs()[2] != 0xabcd {
		t.Errorf("forwarded load got %#x, want 0xabcd", core.Regs()[2])
	}
}

// TestPartialOverlapForwarding: a narrow load inside a wider store's bytes
// still forwards correctly (byte extraction).
func TestPartialOverlapForwarding(t *testing.T) {
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0x7877665544332211),
		isa.Store(0, 64, 1, 8),
		isa.Load(2, 0, 66, 2), // bytes 2..3 of the store: 0x4433
	}}
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	core := runProg(t, prog, in, 1)
	if core.Regs()[2] != 0x4433 {
		t.Errorf("partial forward got %#x, want 0x4433", core.Regs()[2])
	}
}

// TestWiderLoadWaitsForStore: a load wider than the overlapping store
// cannot forward; it must wait and still read the merged bytes correctly.
func TestWiderLoadWaitsForStore(t *testing.T) {
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0xff),
		isa.Store(0, 64, 1, 1), // one byte
		isa.Load(2, 0, 64, 8),  // eight bytes: must see the byte + zeros
	}}
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	core := runProg(t, prog, in, 1)
	if core.Regs()[2] != 0xff {
		t.Errorf("wide load got %#x, want 0xff", core.Regs()[2])
	}
}

// TestSplitAccessTouchesTwoLines: an 8-byte access at offset 60 installs
// both neighbouring lines.
func TestSplitAccessTouchesTwoLines(t *testing.T) {
	prog := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 60, 8),
	}}
	for i := 0; i < 120; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	core := runProg(t, prog, in, 1)
	has := func(la uint64) bool {
		for _, v := range core.Hier.L1D.Snapshot() {
			if v == la {
				return true
			}
		}
		return false
	}
	if !has(isa.DataBase) || !has(isa.DataBase+64) {
		t.Errorf("split access installed %#x, want both 0x...000 and 0x...040", core.Hier.L1D.Snapshot())
	}
}

// TestSplitAccessWrapsSandbox: an access crossing the sandbox end wraps to
// offset 0, both architecturally and in the cache lines it touches.
func TestSplitAccessWrapsSandbox(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0x1122334455667788),
		isa.Store(0, int64(sb.Size())-2, 1, 8),
		isa.Load(2, 0, int64(sb.Size())-2, 8),
	}}
	in := isa.NewInput(sb)
	core := runProg(t, prog, in, 1)
	if core.Regs()[2] != 0x1122334455667788 {
		t.Errorf("wrapped split load got %#x", core.Regs()[2])
	}
	if got := core.Image().Read(isa.DataBase, 1); got != 0x66 {
		t.Errorf("wrapped byte at offset 0 = %#x, want 0x66", got)
	}
}

// TestCMOVDependsOnOldValue: CMOV with a failing condition must preserve
// the destination produced by an in-flight older instruction.
func TestCMOVDependsOnOldValue(t *testing.T) {
	prog := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),        // slow producer of the old value
		isa.CmpImm(0, 1),            // R0=0 -> NE (not equal)
		isa.Cmov(isa.CondEQ, 1, 3),  // condition fails: keep R1
		isa.ALU(isa.OpAdd, 2, 1, 1), // consumes the CMOV result
	}}
	sb := isa.Sandbox{Pages: 1}
	in := isa.NewInput(sb)
	in.Mem[0] = 7
	in.Regs[3] = 99
	core := runProg(t, prog, in, 1)
	if core.Regs()[1] != 7 {
		t.Errorf("CMOV clobbered its destination: R1=%d", core.Regs()[1])
	}
	if core.Regs()[2] != 14 {
		t.Errorf("dependent ADD got %d, want 14", core.Regs()[2])
	}
}

// TestROBFullThrottlesFetch: a long dependent chain cannot overfill the
// ROB; the program still completes correctly.
func TestROBFullThrottlesFetch(t *testing.T) {
	cfg := uarch.DefaultConfig()
	cfg.ROBSize = 8
	prog := &isa.Program{}
	for i := 0; i < 200; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 1, 1, 1))
	}
	sb := isa.Sandbox{Pages: 1}
	core := uarch.NewCore(cfg, nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	core.ResetUarch()
	core.ResetForInput(isa.NewInput(sb))
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.Regs()[1] != 200 {
		t.Errorf("R1 = %d, want 200", core.Regs()[1])
	}
	if core.Stats().Committed != 200 {
		t.Errorf("committed %d, want 200", core.Stats().Committed)
	}
}

// TestMDPLearnsFromViolation: after a store-bypass squash, the retried
// load waits and the second encounter of the same pattern does not violate
// again (within the same µarch context).
func TestMDPLearnsFromViolation(t *testing.T) {
	mk := func() (*isa.Program, *isa.Input) {
		prog := &isa.Program{Insts: []isa.Inst{
			isa.Load(1, 0, 0, 8),            // slow store-address dep
			isa.ALUImm(isa.OpAdd, 1, 1, 40), //
			isa.ALUImm(isa.OpAdd, 1, 1, 40), //
			isa.ALUImm(isa.OpAdd, 1, 1, 47), // address = 128 (mem[0]=1)
			isa.Store(1, 0, 3, 8),           //
			isa.Load(4, 2, 0, 8),            // same address: bypasses
		}}
		for i := 0; i < 60; i++ {
			prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
		}
		in := isa.NewInput(isa.Sandbox{Pages: 1})
		in.Mem[0] = 1
		in.Regs[2] = 128
		return prog, in
	}
	prog, in := mk()
	sb := isa.Sandbox{Pages: 1}
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	core.ResetUarch()
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	first := core.Stats().MemOrderViolations
	if first == 0 {
		t.Fatalf("expected a memory-order violation on the cold MDP")
	}
	// Same program again, same context: the MDP now predicts "wait".
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.Stats().MemOrderViolations != 0 {
		t.Errorf("MDP did not learn: %d violations on the second run", core.Stats().MemOrderViolations)
	}
	// The architectural result must be the store's value either way.
	if core.Regs()[4] != 0 {
		t.Errorf("bypassing load committed stale data: R4=%#x", core.Regs()[4])
	}
}

// TestAccessOrderTraceContainsSpeculation: the memory-access-order trace
// includes wrong-path accesses (that is its point).
func TestAccessOrderTraceContainsSpeculation(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1RegSecret(20)
	in := testgadget.BoundsInput(sb)
	in.Regs[9] = 0x700
	core := runProg(t, prog, in, 1)
	found := false
	for _, a := range core.AccessOrder() {
		if a.Addr == isa.DataBase+0x700 {
			found = true
		}
	}
	if !found {
		t.Errorf("squashed speculative access missing from the access-order trace")
	}
}

// TestStoreTLBLatencyInvisible pins the decision to discard the store's
// address-translation latency (tryIssueStore): the translation's µarch side
// effect — TLB state, the KV3 leak surface — is modeled, but its latency
// cannot be, because a store produces no register value and commit drains
// at CommitWidth regardless. A cold-TLB store and a warm-TLB store must
// therefore retire on the same cycle while their TLB-miss counters differ.
func TestStoreTLBLatencyInvisible(t *testing.T) {
	sb := isa.Sandbox{Pages: 2}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0xab),
		isa.Store(2, 0, 1, 8), // translates at execute; R2 picks the page
	}}
	for i := 0; i < 20; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 3, 3, 1))
	}
	in := isa.NewInput(sb)
	in.Regs[2] = uint64(sb.Size()) / 2 // second page: cold on a fresh TLB

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	run := func(warmTLB bool) (uint64, uint64) {
		core.ResetUarch()
		if warmTLB {
			core.Hier.TranslateData(0, isa.DataBase+in.Regs[2], true)
		}
		core.ResetForInput(in)
		if err := core.Run(); err != nil {
			t.Fatal(err)
		}
		return core.EndCycle(), core.Stats().TLBMisses
	}
	coldEnd, coldMiss := run(false)
	warmEnd, warmMiss := run(true)
	if coldMiss == warmMiss {
		t.Fatalf("TLB warmup not observed (cold %d misses, warm %d)", coldMiss, warmMiss)
	}
	if coldEnd != warmEnd {
		t.Errorf("store TLB latency leaked into timing: cold end %d, warm end %d", coldEnd, warmEnd)
	}
}

// TestCoreRunSteadyStateAllocs pins the zero-alloc invariant of the
// pipeline: after warm-up, the DynInst arena, ROB window, scoreboard
// unissued list and trace slices are all rewound per input — a full
// LoadTest + ResetForInput + Run cycle allocates nothing. It covers the
// paper's 64-entry window with the scoreboard the default configuration
// engages (auto) and with the naive per-cycle walk (Config.NoScoreboard),
// and a window too large for the scoreboard masks (rob256, where the core
// falls back to the naive walk), the latter with programs long enough to
// push ROB slot indices past the masks' 128 bits.
func TestCoreRunSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name         string
		rob          int
		noScoreboard bool
	}{{"auto", 64, false}, {"naive", 64, true}, {"rob256", 256, false}} {
		rob := mode.rob
		t.Run(mode.name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 5
			if rob > 64 {
				gcfg.MinInsts, gcfg.MaxInsts, gcfg.MaxBlocks = 180, 250, 8
			}
			g := generator.New(gcfg)
			sb := g.Sandbox()
			cfg := uarch.DefaultConfig()
			cfg.ROBSize = rob
			cfg.NoScoreboard = mode.noScoreboard
			core := uarch.NewCore(cfg, nil)
			const nProgs = 8
			progs := make([]*isa.Program, nProgs)
			inputs := make([]*isa.Input, nProgs)
			for i := range progs {
				progs[i] = g.Program()
				inputs[i] = g.Input()
			}
			k := 0
			run := func() {
				if err := core.LoadTest(progs[k], sb); err != nil {
					t.Fatal(err)
				}
				core.ResetForInput(inputs[k])
				if err := core.Run(); err != nil {
					t.Fatal(err)
				}
				k = (k + 1) % nProgs
			}
			for i := 0; i < 2*nProgs; i++ {
				run() // size the arena, ROB window and trace slices
			}
			if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
				t.Errorf("Core.Run allocates %v objects per input in steady state, want 0", allocs)
			}
		})
	}
}

// BenchmarkCoreRun measures the raw pipeline: one simulated test case per
// iteration with Opt-style resets, without generation or comparison costs.
func BenchmarkCoreRun(b *testing.B) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 17
	g := generator.New(gcfg)
	sb := g.Sandbox()
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	const nProgs = 8
	progs := make([]*isa.Program, nProgs)
	inputs := make([]*isa.Input, nProgs)
	for i := range progs {
		progs[i] = g.Program()
		inputs[i] = g.Input()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % nProgs
		if err := core.LoadTest(progs[k], sb); err != nil {
			b.Fatal(err)
		}
		core.ResetForInput(inputs[k])
		if err := core.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
