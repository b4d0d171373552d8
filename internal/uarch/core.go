package uarch

import (
	"errors"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/mem"
)

// ErrMaxCycles is returned by Run when the cycle budget is exhausted.
var ErrMaxCycles = errors.New("uarch: simulation exceeded MaxCycles")

// Core is the out-of-order processor. One Core is reused across the many
// inputs of a test program (the AMuLeT-Opt strategy): LoadTest installs a
// program, ResetForInput rewinds the pipeline and architectural state while
// deliberately preserving predictor and cache state, and ResetUarch
// restores a fresh micro-architectural context when required (Naive mode
// and violation validation).
type Core struct {
	cfg Config
	def Defense

	Hier *mem.Hierarchy
	BP   *BPred
	MD   *MDP
	Log  DebugLog

	prog *isa.Program
	sb   isa.Sandbox

	// Committed architectural state.
	regs  [isa.NumRegs]uint64
	flags isa.Flags
	img   *isa.Image

	// Pipeline state.
	cycle           uint64
	seq             uint64
	rob             []*DynInst
	renameReg       [isa.NumRegs]*DynInst
	renameFlags     *DynInst
	fetchIdx        int
	fetchStallUntil uint64
	fence           *DynInst
	lastILine       uint64
	haveILine       bool
	phantomPC       uint64

	stats       Stats
	accessOrder []AccessRec
	branchOrder []BranchRec

	// Scratch arena: buffers reused across the many inputs this core
	// executes, so the steady-state simulation loop allocates nothing.
	// dyn recycles DynInst structs, robBuf backs the rob window (twice
	// ROBSize, so the window slides and compacts amortized O(1) per
	// dispatch), and squashBuf holds the squash walk of one recovery.
	dyn       dynArena
	robBuf    []*DynInst
	squashBuf []*DynInst

	// robOff is the robBuf index of rob[0], so an instruction's ROB
	// position is RobIdx - robOff without scanning.
	robOff int

	// wbNext is the writeback walk's skip watermark: a conservative lower
	// bound on the earliest completion among executing instructions.
	wbNext uint64

	// Scoreboard state (unless cfg.NoScoreboard; see the Config.NoScoreboard
	// doc). sbDone has the bit of every robBuf slot whose instruction reached
	// StDone/StCommitted — set at writeback, cleared when a squash frees slots
	// for reuse, rebuilt on window compaction. unissued is the seq-ordered
	// list of dispatched entries the issue walk still has to visit, held as
	// robBuf slot indices rather than pointers so the per-cycle compaction
	// writes plain ints (no GC write barriers on the hottest loop in the
	// profile); issued entries are compacted out lazily, squashes truncate it,
	// and the compaction rebuild renumbers it along with the masks. A slot
	// index always denotes the instruction that appended it: slots are only
	// reused after a squash (which truncated the list first) or a compaction
	// (which rebuilt it).
	sbOn     bool
	sbDone   [2]uint64
	unissued []int32

	// lastActCycle is the last cycle in which an instruction changed state
	// (issued, wrote back or committed). skipQuiescentSpan uses it to pay for
	// the span-proof ROB walk only on cycles that were themselves fully quiet
	// — on a busy cycle the very activity that just happened almost always
	// seeds more next cycle, so the walk would fail anyway. Suppressing the
	// attempt only forgoes a skip; it can never change behaviour.
	lastActCycle uint64

	// cov, when non-nil, receives speculation-coverage features as the core
	// simulates (see coverage.go); lastMemClass threads the previous
	// data-access outcome into transition-edge features.
	cov          *Coverage
	lastMemClass uint64

	ended    bool
	endCycle uint64
}

// NewCore builds a core with the given configuration and defense. It panics
// on invalid configuration; campaign entry points validate beforehand.
func NewCore(cfg Config, def Defense) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if def == nil {
		def = NopDefense{}
	}
	c := &Core{
		cfg:  cfg,
		def:  def,
		Hier: mem.NewHierarchy(cfg.Hier),
		BP:   NewBPred(cfg.BPred),
		MD:   NewMDP(),
		// The scoreboard needs one bit per robBuf slot (2*ROBSize) in its
		// two mask words; larger windows keep the reference walk.
		sbOn: !cfg.NoScoreboard && 2*cfg.ROBSize <= 128,
	}
	def.Attach(c)
	return c
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Defense returns the attached defense.
func (c *Core) Defense() Defense { return c.def }

// Sandbox returns the sandbox of the loaded test program.
func (c *Core) Sandbox() isa.Sandbox { return c.sb }

// Program returns the loaded test program.
func (c *Core) Program() *isa.Program { return c.prog }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.cycle }

// ROB exposes the reorder buffer to defenses (oldest first).
func (c *Core) ROB() []*DynInst { return c.rob }

// Regs returns the committed register file.
func (c *Core) Regs() [isa.NumRegs]uint64 { return c.regs }

// Image returns the committed data-memory image.
func (c *Core) Image() *isa.Image { return c.img }

// Stats returns the counters of the last run.
func (c *Core) Stats() Stats { return c.stats }

// EndCycle returns the cycle at which the last instruction committed.
func (c *Core) EndCycle() uint64 { return c.endCycle }

// AccessOrder returns the memory-access-order trace of the last run.
func (c *Core) AccessOrder() []AccessRec { return c.accessOrder }

// BranchOrder returns the branch-prediction-order trace of the last run.
func (c *Core) BranchOrder() []BranchRec { return c.branchOrder }

// LoadTest installs a test program. The micro-architectural state is left
// untouched; call ResetUarch for a fresh context.
func (c *Core) LoadTest(p *isa.Program, sb isa.Sandbox) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := sb.Validate(); err != nil {
		return err
	}
	c.prog = p
	c.sb = sb
	// Pooled executors load same-geometry sandboxes program after program;
	// reusing the image (zeroed, exactly as a fresh one starts) keeps the
	// per-program path allocation-free.
	if c.img != nil && c.img.Sandbox() == sb {
		c.img.Zero()
	} else {
		c.img = isa.NewImage(sb)
	}
	return nil
}

// ClearTest unloads the test program and its sandbox mapping, leaving the
// core in a defined empty state: Run fails until the next LoadTest, which
// rebuilds the memory image from scratch. The executor uses it when a boot
// workload ran without a test program loaded, so the boot program never
// lingers as an accidental test target.
func (c *Core) ClearTest() {
	c.prog = nil
	c.sb = isa.Sandbox{}
	c.img = nil
}

// ResetForInput rewinds the pipeline and loads the architectural input,
// preserving predictor, cache and TLB state — the AMuLeT-Opt behaviour of
// overwriting registers and sandbox memory in the running simulator.
func (c *Core) ResetForInput(in *isa.Input) {
	c.regs = in.Regs
	c.flags = isa.Flags{}
	c.img.SetBytes(in.Mem)

	c.cycle = 0
	c.seq = 0
	if c.robBuf == nil {
		c.robBuf = make([]*DynInst, 2*c.cfg.ROBSize)
	}
	c.rob = c.robBuf[:0]
	c.robOff = 0
	c.wbNext = 0
	c.lastActCycle = 0
	c.sbDone = [2]uint64{}
	c.unissued = c.unissued[:0]
	c.dyn.reset()
	for i := range c.renameReg {
		c.renameReg[i] = nil
	}
	c.renameFlags = nil
	c.fetchIdx = 0
	c.fetchStallUntil = 0
	c.fence = nil
	c.haveILine = false
	c.phantomPC = 0
	c.stats = Stats{}
	c.accessOrder = c.accessOrder[:0]
	c.branchOrder = c.branchOrder[:0]
	c.ended = false
	c.endCycle = 0
	c.lastMemClass = 0
	c.Log.Reset()

	// MSHRs, port blocks and pending fills do not survive the checkpoint
	// restore between inputs: in-flight requests from the previous test
	// case are abandoned.
	c.Hier.MSHR.Reset()
	c.Hier.ClearPortBlock()
	c.Hier.DropPendingFills()
	c.def.Reset()
}

// ResetUarch restores a fresh micro-architectural context: predictors,
// caches, TLB, LFB. Used by AMuLeT-Naive before every input and by the
// violation-validation re-runs.
func (c *Core) ResetUarch() {
	c.BP.Reset()
	c.MD.Reset()
	c.Hier.Reset()
}

// UarchState is an opaque copy of the persistent micro-architectural
// context µ (caches, TLB, predictors).
type UarchState struct {
	hier mem.HierState
	bp   BPredState
	mdp  MDPState
}

// SaveUarch captures the current micro-architectural context, so violation
// validation can replay two inputs from the *same* context µ, as
// Definition 2.1 requires.
func (c *Core) SaveUarch() *UarchState {
	st := &UarchState{}
	c.SaveUarchInto(st)
	return st
}

// SaveUarchInto captures the context into st, reusing st's buffers: the
// validation path saves a checkpoint per µarch-trace mismatch, so the
// executor hands the same state object back in instead of reallocating
// cache-sized copies every time.
func (c *Core) SaveUarchInto(st *UarchState) {
	c.Hier.SaveInto(&st.hier)
	c.BP.SaveInto(&st.bp)
	c.MD.SaveInto(&st.mdp)
}

// RestoreUarch rewinds the micro-architectural context to a saved state.
func (c *Core) RestoreUarch(st *UarchState) {
	c.Hier.Restore(&st.hier)
	c.BP.Restore(&st.bp)
	c.MD.Restore(&st.mdp)
}

// Run simulates the loaded test case to completion: it returns once the
// last dynamic instruction has committed (the m5exit point; in-flight fills
// and queued defense work are abandoned, as with m5exit in gem5).
func (c *Core) Run() error {
	if c.prog == nil {
		return errors.New("uarch: Run before LoadTest")
	}
	for {
		c.cycle++
		if c.cycle > c.cfg.MaxCycles {
			return fmt.Errorf("%w (%d)", ErrMaxCycles, c.cfg.MaxCycles)
		}
		fills := c.Hier.Tick(c.cycle)
		for _, f := range fills {
			if f.Sink == mem.SinkCache {
				c.Log.Add(c.cycle, f.Owner, 0, LogFill, f.LineAddr)
			}
		}
		c.def.OnFills(fills)
		c.def.OnTick()

		c.writeback()
		c.commit()
		c.issue()
		c.fetch()

		if len(c.rob) == 0 && c.fetchIdx >= c.prog.Len() {
			c.ended = true
			c.endCycle = c.cycle
			c.stats.Cycles = c.cycle
			// m5exit: the memory system drains in-flight fills (committed
			// stores' write-allocates and already-issued requests land),
			// while defense work queues — e.g. InvisiSpec's not-yet-issued
			// Expose requests — are abandoned. Without the drain, the
			// *timing* of the last instructions would decide which committed
			// stores become visible, which is not a leak gem5 exhibits.
			// Nothing but fills can act here, so the drain jumps straight
			// to each completion instead of ticking through empty cycles
			// (intervening cycles only call OnFills with an empty batch —
			// a no-op by contract).
			for c.Hier.PendingFills() > 0 && c.cycle < c.cfg.MaxCycles {
				next := c.Hier.NextReady()
				switch {
				case c.cfg.NoCycleSkip || next <= c.cycle+1:
					c.cycle++
				case next <= c.cfg.MaxCycles:
					c.cycle = next
				default:
					// The remaining fills land past the cap; tick out the
					// budget without walking it.
					c.cycle = c.cfg.MaxCycles
					continue
				}
				c.def.OnFills(c.Hier.AdvanceTo(c.cycle))
			}
			return nil
		}

		if !c.cfg.NoCycleSkip {
			c.skipQuiescentSpan()
		}
	}
}

// --- writeback & branch resolution ---

// startExec moves in to the executing state, completing at doneAt, and
// lowers the writeback watermark to cover it.
func (c *Core) startExec(in *DynInst, doneAt uint64) {
	in.State = StExecuting
	in.DoneAt = doneAt
	c.lastActCycle = c.cycle
	if doneAt < c.wbNext {
		c.wbNext = doneAt
	}
}

// writeback retires the execution of every instruction whose DoneAt has
// arrived, oldest first, resolving branches as it goes.
func (c *Core) writeback() {
	// wbNext is a conservative lower bound on the earliest DoneAt of any
	// executing instruction (startExec lowers it, the walk re-derives it),
	// so the cycles spent waiting on one long-latency fill skip the ROB
	// walk entirely. A stale-low bound after a squash merely costs an
	// extra no-op walk; the walk itself is side-effect-free for non-due
	// entries, so the skip cannot change behaviour.
	if c.cycle < c.wbNext {
		return
	}
	next := ^uint64(0)
	for i := 0; i < len(c.rob); i++ {
		in := c.rob[i]
		if in.State != StExecuting {
			continue
		}
		if in.DoneAt > c.cycle {
			if in.DoneAt < next {
				next = in.DoneAt
			}
			continue
		}
		in.State = StDone
		if c.sbOn {
			c.sbDone[in.RobIdx>>6] |= 1 << (in.RobIdx & 63)
		}
		c.lastActCycle = c.cycle
		if in.IsBranch() {
			if c.resolveBranch(in) {
				// Squash truncated the ROB; younger entries are gone, and
				// the walk did not finish deriving the bound.
				c.wbNext = 0
				return
			}
			continue
		}
		c.def.OnResult(in)
	}
	c.wbNext = next
}

// resolveBranch resolves a conditional branch and reports whether it
// squashed the pipeline.
func (c *Core) resolveBranch(br *DynInst) bool {
	br.Taken = br.Flags().Eval(br.In.Cond)
	actualIdx := br.Idx + 1
	if br.Taken {
		actualIdx = br.In.Target
	}
	c.def.OnBranchResolved(br)
	c.BP.Update(br.PC, br.HistAtPred, br.Taken, isa.PCOf(br.In.Target))
	c.def.OnResult(br)
	if br.Taken == br.PredTaken {
		return false
	}
	c.stats.Mispredicts++
	c.BP.Repair(br.HistAtPred, br.Taken)
	c.Log.Add(c.cycle, br.Seq, br.PC, LogSquash, isa.PCOf(actualIdx))
	c.cover(covSquash, br.PC, uint64(actualIdx))
	c.squashYoungerThan(br.Seq, actualIdx)
	return true
}

// squashYoungerThan removes every instruction younger than seq from the
// pipeline and redirects fetch to redirectIdx. Defense cleanup work delays
// the redirect (the unXpec timing channel).
func (c *Core) squashYoungerThan(seq uint64, redirectIdx int) {
	cut := len(c.rob)
	for i, in := range c.rob {
		if in.Seq > seq {
			cut = i
			break
		}
	}
	squashed := append(c.squashBuf[:0], c.rob[cut:]...)
	c.squashBuf = squashed
	c.rob = c.rob[:cut]
	if c.sbOn {
		// The truncated slots are the next ones robPush reuses: their done
		// bits must not leak onto the instructions that take them over. The
		// unissued list is seq-ordered, so the squash is a truncation there
		// too — done before any slot is reused, while every listed index
		// still names the instruction that appended it.
		for _, in := range squashed {
			c.sbDone[in.RobIdx>>6] &^= 1 << (in.RobIdx & 63)
		}
		ucut := len(c.unissued)
		for i, idx := range c.unissued {
			if c.robBuf[idx].Seq > seq {
				ucut = i
				break
			}
		}
		c.unissued = c.unissued[:ucut]
	}
	// Youngest first, matching squash walk order in hardware.
	for i, j := 0, len(squashed)-1; i < j; i, j = i+1, j-1 {
		squashed[i], squashed[j] = squashed[j], squashed[i]
	}
	for _, in := range squashed {
		in.State = StSquashed
	}
	c.stats.Squashed += uint64(len(squashed))
	c.rebuildRename()
	extra := 0
	if len(squashed) > 0 {
		extra = c.def.OnSquash(squashed)
		if extra > 0 {
			// Defense cleanup work on the squash path (CleanupSpec's
			// rollback): both the fact and its magnitude are signal.
			c.cover(covDefense, hookSquashDelay, depthBucket(extra))
		}
	}
	if c.fence != nil && c.fence.State == StSquashed {
		c.fence = nil
	}
	c.fetchIdx = redirectIdx
	c.fetchStallUntil = c.cycle + 1 + uint64(extra)
	c.haveILine = false
	c.phantomPC = 0
}

func (c *Core) rebuildRename() {
	for i := range c.renameReg {
		c.renameReg[i] = nil
	}
	c.renameFlags = nil
	for _, in := range c.rob {
		if in.State == StCommitted {
			continue
		}
		if in.WritesReg {
			c.renameReg[in.In.Dst] = in
		}
		if in.WritesFlags {
			c.renameFlags = in
		}
	}
}

// --- commit ---

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && len(c.rob) > 0; n++ {
		in := c.rob[0]
		if in.State != StDone {
			return
		}
		in.State = StCommitted
		c.lastActCycle = c.cycle
		if in.WritesReg {
			c.regs[in.In.Dst] = in.Result
		}
		if in.WritesFlags {
			c.flags = in.ResFlags
		}
		if in.IsStore() {
			c.img.Write(in.EffAddr, in.In.Size, in.Result)
			c.commitStoreCache(in)
			c.Log.Add(c.cycle, in.Seq, in.PC, LogCommitSt, in.EffAddr)
		}
		if in.IsLoad() && in.Bypassed {
			c.MD.TrainCorrect(in.PC)
		}
		c.def.OnCommit(in)
		if c.renameReg[in.In.Dst] == in {
			c.renameReg[in.In.Dst] = nil
		}
		if c.renameFlags == in {
			c.renameFlags = nil
		}
		if c.fence == in {
			c.fence = nil
		}
		c.rob = c.rob[1:]
		c.robOff++
		c.stats.Committed++
	}
}

// commitStoreCache performs the committed store's cache write (write
// allocate). Committed stores are architecturally safe, so every defense
// lets them install.
func (c *Core) commitStoreCache(st *DynInst) {
	opts := mem.DataAccessOpts{UpdateLRU: true, Sink: mem.SinkCache, Owner: st.Seq}
	c.accessLines(st, opts)
}

// accessLines performs the one or two line accesses of a memory operation.
func (c *Core) accessLines(in *DynInst, opts mem.DataAccessOpts) (res1, res2 mem.DataAccessResult) {
	c.stats.L1DAccesses++
	res1 = c.Hier.AccessData(c.cycle, in.EffAddr, opts)
	if !res1.L1Hit {
		c.stats.L1DMisses++
	}
	if c.cov != nil {
		// Transition edge: (previous outcome → this outcome, fill sink) at
		// this PC. Hit/miss patterns and where fills land are exactly the
		// state a cache side channel modulates.
		cls := memClass(res1.L1Hit, res1.L2Hit) | uint64(opts.Sink)<<2
		c.cover(covMemEdge, in.PC, c.lastMemClass<<5|cls)
		c.lastMemClass = cls
		if opts.Sink == mem.SinkLFB {
			c.cover(covLFB, in.PC, memClass(res1.L1Hit, res1.L2Hit))
		}
	}
	if res1.FillID != 0 {
		in.FillIDs = append(in.FillIDs, res1.FillID)
	}
	if in.IsSplit {
		c.stats.L1DAccesses++
		res2 = c.Hier.AccessData(c.cycle, in.Line2, opts)
		if !res2.L1Hit {
			c.stats.L1DMisses++
		}
		if res2.FillID != 0 {
			in.FillIDs = append(in.FillIDs, res2.FillID)
		}
	}
	return res1, res2
}

// --- issue / execute ---

// UnderShadow reports whether an older unresolved conditional branch exists
// for in: the speculation shadow that defenses key their protection on.
func (c *Core) UnderShadow(in *DynInst) bool {
	for _, older := range c.rob {
		if older.Seq >= in.Seq {
			return false
		}
		if older.IsBranch() && older.State != StDone && older.State != StCommitted {
			return true
		}
	}
	return false
}

// issue walks the dispatched instructions oldest first, attempting each
// under the IssueWidth budget.
func (c *Core) issue() {
	if c.sbOn {
		c.issueScoreboard()
		return
	}
	issued := 0
	for i := 0; i < len(c.rob) && issued < c.cfg.IssueWidth; i++ {
		in := c.rob[i]
		if in.State != StDispatched {
			continue
		}
		if c.attemptIssue(in, i == 0, &issued) {
			return // memory-order squash rewrote the ROB
		}
	}
}

// issueScoreboard is the issue walk over the unissued list: the same
// attemptIssue calls in the same (program) order as the reference full-ROB
// scan — dispatched entries are exactly the list's live entries, in seq
// order — minus the visits to already-executing, done and committed
// entries the reference walk steps over. Issued and squashed entries are
// compacted out with a write cursor; writes begin only at the first
// removal, so a fully stalled cycle stores nothing.
func (c *Core) issueScoreboard() {
	issued := 0
	list := c.unissued
	w := 0
	for i := 0; i < len(list); i++ {
		idx := list[i]
		in := c.robBuf[idx]
		if in.State != StDispatched {
			continue // issued since its last visit: drop
		}
		if issued >= c.cfg.IssueWidth || c.issueBlockedPure(in) {
			// Width exhausted, or the attempt would be a side-effect-free
			// early return (pending producer, fence away from the head):
			// skip the attemptIssue call the reference walk would burn on
			// it. issueBlockedPure is exactly the predicate the quiescent
			// span proof uses for the same question.
			if w != i {
				list[w] = idx
			}
			w++
			continue
		}
		if c.attemptIssue(in, in.RobIdx == c.robOff, &issued) {
			// Memory-order squash: squashYoungerThan already truncated
			// c.unissued to the surviving seq range (the walked prefix is
			// older than the victim, so it is intact). Stitch the kept
			// prefix, the store itself, and the not-yet-walked survivors
			// back together, then stop issuing — the reference walk
			// returns here too.
			list = c.unissued // re-read: the squash truncated it
			if in.State == StDispatched {
				if w != i {
					list[w] = idx
				}
				w++
			}
			if w != i+1 {
				w += copy(list[w:], list[i+1:])
			} else {
				w = len(list)
			}
			c.unissued = list[:w]
			return
		}
		if in.State != StDispatched {
			continue // issued this cycle
		}
		if w != i {
			list[w] = idx
		}
		w++
	}
	c.unissued = list[:w]
}

// depsDone reports whether in's register/flags dependencies have all
// produced their results: the scoreboard mask test when it is on, the
// reference per-producer walk otherwise.
func (c *Core) depsDone(in *DynInst) bool {
	if c.sbOn {
		return (in.waitMask[0]&^c.sbDone[0])|(in.waitMask[1]&^c.sbDone[1]) == 0
	}
	return in.DepsDone()
}

// attemptIssue tries to advance one dispatched instruction through its next
// issue step, incrementing *issued per consumed slot. head reports whether
// the instruction is at the ROB head (fences serialize there). It reports
// whether a memory-order squash rewrote the pipeline. The scoreboard and
// reference walks share it, so the per-instruction issue semantics — and
// every defense/coverage side effect of an attempt — are identical by
// construction.
func (c *Core) attemptIssue(in *DynInst, head bool, issued *int) (squashed bool) {
	switch {
	case in.In.Op == isa.OpNop:
		c.startExec(in, c.cycle+1)
		*issued++
	case in.In.Op == isa.OpFence:
		// Serializing: executes only at the head of the ROB.
		if head {
			c.startExec(in, c.cycle+1)
			*issued++
		}
	case in.In.Op == isa.OpJmp:
		c.startExec(in, c.cycle+1)
		*issued++
	case in.IsBranch():
		if c.depsDone(in) {
			c.startExec(in, c.cycle+uint64(c.cfg.LatBranch))
			*issued++
		}
	case in.In.Op.IsALU():
		if c.depsDone(in) {
			c.executeALU(in)
			*issued++
		}
	case in.IsLoad():
		if c.tryIssueLoad(in) {
			*issued++
		}
	case in.IsStore():
		return c.tryIssueStore(in, issued)
	}
	return false
}

func (c *Core) executeALU(in *DynInst) {
	a := in.SrcVal(0)
	b := in.SrcVal(1)
	if in.In.UseImm || in.In.Op == isa.OpMovImm {
		b = uint64(in.In.Imm)
	}
	res, fl, writes := isa.EvalALU(in.In.Op, in.In.Cond, a, b, in.SrcVal(2), in.Flags())
	in.Result = res
	in.ResFlags = fl
	_ = writes // WritesReg was fixed at dispatch
	lat := c.cfg.LatALU
	if in.In.Op == isa.OpMul {
		lat = c.cfg.LatMul
	}
	c.startExec(in, c.cycle+uint64(lat))
}

// tryIssueLoad attempts to issue a load; it returns whether an issue slot
// was consumed.
func (c *Core) tryIssueLoad(ld *DynInst) bool {
	if p := ld.Deps[0]; p != nil && p.State != StDone && p.State != StCommitted {
		return false
	}
	if !ld.AddrValid {
		ld.EffAddr = c.sb.EffAddr(ld.SrcVal(0), ld.In.Imm)
		ld.AddrValid = true
		last := c.sb.ByteAddr(ld.EffAddr, ld.In.Size-1)
		l1, l2 := c.Hier.L1D.LineAddr(ld.EffAddr), c.Hier.L1D.LineAddr(last)
		if l1 != l2 {
			ld.IsSplit = true
			ld.Line2 = l2
		}
	}

	// Load/store queue search: forwarding, blocking, and Spectre-v4 bypass.
	fwd, fwdVal, blocked := c.searchStoreQueue(ld)
	if blocked {
		return false
	}

	spec := c.specAtIssue(ld, covSpecDepth, ld.PC)
	ld.SpecAtIssue = spec
	act := c.def.LoadAction(ld, spec)
	if c.cov != nil {
		if act.Delay {
			c.cover(covDefense, hookLoadDelay, ld.PC)
		}
		if act.Sink != mem.SinkCache {
			c.cover(covDefense, hookLoadSink|uint64(act.Sink)<<8, ld.PC)
		}
		if act.NoMSHR {
			c.cover(covDefense, hookLoadNoMSHR, ld.PC)
		}
		if act.EvictOnMissFullSet {
			c.cover(covDefense, hookLoadEvict, ld.PC)
		}
		if !act.UpdateLRU {
			c.cover(covDefense, hookLoadNoLRU, ld.PC)
		}
	}
	if act.Delay {
		return false
	}

	tlbLat, tlbHit := c.Hier.TranslateData(c.cycle, ld.EffAddr, act.TLBInstall)
	if !tlbHit {
		c.stats.TLBMisses++
		if act.TLBInstall {
			c.Log.Add(c.cycle, ld.Seq, ld.PC, LogTLBFill, ld.EffAddr)
		}
	}
	if c.cov != nil {
		tlbCls := uint64(0)
		if !tlbHit {
			tlbCls = 1
			if act.TLBInstall {
				tlbCls = 2 // miss that installed a translation
			}
		}
		c.cover(covTLB, ld.PC, tlbCls)
	}

	kind := LogLoad
	if spec {
		kind = LogSpecLd
	}
	c.Log.Add(c.cycle, ld.Seq, ld.PC, kind, ld.EffAddr)
	if ld.IsSplit {
		c.Log.Add(c.cycle, ld.Seq, ld.PC, LogSplit, c.Hier.L1D.LineAddr(ld.EffAddr))
		c.Log.Add(c.cycle, ld.Seq, ld.PC, LogSplit, ld.Line2)
	}
	c.accessOrder = append(c.accessOrder, AccessRec{PC: ld.PC, Addr: ld.EffAddr})

	if fwd {
		ld.Forwarded = true
		ld.LoadVal = fwdVal
		ld.Result = fwdVal
		c.startExec(ld, c.cycle+uint64(1+tlbLat))
		c.def.OnLoadExecuted(ld, mem.DataAccessResult{L1Hit: true, Latency: 1}, mem.DataAccessResult{})
		return true
	}

	opts := mem.DataAccessOpts{
		UpdateLRU:          act.UpdateLRU,
		Sink:               act.Sink,
		EvictOnMissFullSet: act.EvictOnMissFullSet,
		NoMSHR:             act.NoMSHR,
		Owner:              ld.Seq,
	}
	res1, res2 := c.accessLines(ld, opts)
	lat := res1.Latency
	if ld.IsSplit && res2.Latency > lat {
		lat = res2.Latency
	}
	ld.LoadVal = c.img.Read(ld.EffAddr, ld.In.Size)
	ld.Result = ld.LoadVal
	c.startExec(ld, c.cycle+uint64(tlbLat+lat))
	c.def.OnLoadExecuted(ld, res1, res2)
	return true
}

// searchStoreQueue scans older in-flight stores for the load, youngest
// first. It returns a forwarded value when the youngest older overlapping
// store fully covers the load, blocks the load when a partial overlap or a
// must-wait dependence prediction demands it, and otherwise lets the load
// bypass (recording that it did, for memory-order violation checks). The
// walk runs down the ROB from the load's own position, which RobIdx yields
// directly.
func (c *Core) searchStoreQueue(ld *DynInst) (fwd bool, val uint64, blocked bool) {
	ldBytes := spanOf(c.sb, ld.EffAddr, ld.In.Size)
	for i := ld.RobIdx - c.robOff - 1; i >= 0; i-- {
		st := c.rob[i]
		if !st.IsStore() || st.State == StCommitted {
			continue
		}
		if !st.AddrValid {
			if !c.MD.Bypass(ld.PC) {
				return false, 0, true
			}
			ld.Bypassed = true
			continue
		}
		stBytes := spanOf(c.sb, st.EffAddr, st.In.Size)
		if !stBytes.overlaps(&ldBytes) {
			continue
		}
		if p := st.Deps[1]; (p != nil && p.State != StDone && p.State != StCommitted) || !stBytes.covers(&ldBytes) {
			// Partial overlap or data not ready: wait for the store.
			return false, 0, true
		}
		ld.FwdFromSeq = st.Seq
		return true, extractForward(&stBytes, &ldBytes, st.SrcVal(1)), false
	}
	return false, 0, false
}

// extractForward assembles the load value from the store's data bytes.
func extractForward(stBytes, ldBytes *byteSpan, stVal uint64) uint64 {
	var v uint64
	for k := 0; k < ldBytes.n; k++ {
		for j := 0; j < stBytes.n; j++ {
			if stBytes.off[j] == ldBytes.off[k] {
				v |= uint64(byte(stVal>>(8*j))) << (8 * k)
				break
			}
		}
	}
	return v
}

// tryIssueStore advances a store through its two execute phases: address
// resolution (with memory-order violation detection — the Spectre-v4
// squash) and data readiness. It reports whether a squash rewrote the ROB.
func (c *Core) tryIssueStore(st *DynInst, issued *int) (squashed bool) {
	if !st.AddrValid {
		if p := st.Deps[0]; p != nil && p.State != StDone && p.State != StCommitted {
			return false
		}
		spec := c.specAtIssue(st, covSpecDepth, st.PC|1<<16)
		st.SpecAtIssue = spec
		act := c.def.StoreAction(st, spec)
		if c.cov != nil {
			if act.Delay {
				c.cover(covDefense, hookStoreDelay, st.PC)
			}
			if act.PrefetchLine {
				c.cover(covDefense, hookStorePrefetch, st.PC)
			}
			if spec && act.TLBAccess && act.TLBInstall {
				c.cover(covDefense, hookStoreSpecTLB, st.PC)
			}
		}
		if act.Delay {
			return false
		}
		st.EffAddr = c.sb.EffAddr(st.SrcVal(0), st.In.Imm)
		st.AddrValid = true
		last := c.sb.ByteAddr(st.EffAddr, st.In.Size-1)
		l1, l2 := c.Hier.L1D.LineAddr(st.EffAddr), c.Hier.L1D.LineAddr(last)
		if l1 != l2 {
			st.IsSplit = true
			st.Line2 = l2
		}
		*issued++

		if act.TLBAccess {
			// The store translates at execute for the µarch side effects
			// only — TLB state is the KV3 leak surface — so the returned
			// latency is deliberately unused. It is architecturally
			// invisible in this model: a store produces no register value
			// (dependent loads wait on the *data* producer via forwarding,
			// never on translation), and its occupancy ends at commit,
			// which drains at CommitWidth regardless of how long the
			// address phase took. gem5's O3 hides the same latency in the
			// store queue. TestStoreTLBLatencyInvisible pins this: a
			// cold-TLB and a warm-TLB store retire on the same cycle while
			// the TLB-miss counters differ.
			_, tlbHit := c.Hier.TranslateData(c.cycle, st.EffAddr, act.TLBInstall)
			if !tlbHit {
				c.stats.TLBMisses++
				if act.TLBInstall {
					c.Log.Add(c.cycle, st.Seq, st.PC, LogTLBFill, st.EffAddr)
				}
			}
		}
		kind := LogStore
		if spec {
			kind = LogSpecSt
		}
		c.Log.Add(c.cycle, st.Seq, st.PC, kind, st.EffAddr)
		if st.IsSplit {
			c.Log.Add(c.cycle, st.Seq, st.PC, LogSplit, c.Hier.L1D.LineAddr(st.EffAddr))
			c.Log.Add(c.cycle, st.Seq, st.PC, LogSplit, st.Line2)
		}
		c.accessOrder = append(c.accessOrder, AccessRec{PC: st.PC, Addr: st.EffAddr, Store: true})

		if act.PrefetchLine {
			opts := mem.DataAccessOpts{UpdateLRU: true, Sink: mem.SinkCache, Owner: st.Seq}
			res1, res2 := c.accessLines(st, opts)
			c.def.OnStoreExecuted(st, res1, res2)
		} else {
			c.def.OnStoreExecuted(st, mem.DataAccessResult{}, mem.DataAccessResult{})
		}

		if c.checkMemOrderViolation(st) {
			return true
		}
	}
	// Data phase.
	if p := st.Deps[1]; p != nil && p.State != StDone && p.State != StCommitted {
		return false
	}
	st.Result = st.SrcVal(1)
	c.startExec(st, c.cycle+1)
	return false
}

// checkMemOrderViolation looks for younger loads that already executed and
// overlap the store whose address just resolved. Such loads consumed stale
// data (the Spectre-v4 window); the pipeline squashes from the oldest
// violating load and trains the dependence predictor. A load that took its
// value from a store younger than st still holds correct data.
func (c *Core) checkMemOrderViolation(st *DynInst) bool {
	stBytes := spanOf(c.sb, st.EffAddr, st.In.Size)
	var victim *DynInst
	for _, in := range c.rob {
		if in.Seq <= st.Seq || !in.IsLoad() || !in.AddrValid ||
			(in.State != StExecuting && in.State != StDone) ||
			(in.Forwarded && in.FwdFromSeq > st.Seq) {
			continue
		}
		if ldBytes := spanOf(c.sb, in.EffAddr, in.In.Size); stBytes.overlaps(&ldBytes) {
			victim = in
			break // ROB is in program order: first match is the oldest
		}
	}
	if victim == nil {
		return false
	}
	c.stats.MemOrderViolations++
	c.MD.TrainViolation(victim.PC)
	c.Log.Add(c.cycle, victim.Seq, victim.PC, LogMOV, victim.EffAddr)
	c.cover(covSquash, victim.PC|1<<16, uint64(victim.Idx))
	c.squashYoungerThan(victim.Seq-1, victim.Idx)
	return true
}

// --- fetch & dispatch ---

func (c *Core) fetch() {
	if c.fetchStallUntil > c.cycle {
		return
	}
	if c.fence != nil {
		return // serialized until the fence commits
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchIdx >= c.prog.Len() {
			c.fetchPhantom()
			return
		}
		if len(c.rob) >= c.cfg.ROBSize {
			return
		}
		pc := isa.PCOf(c.fetchIdx)
		line := c.Hier.L1I.LineAddr(pc)
		if !c.haveILine || line != c.lastILine {
			lat := c.Hier.AccessInst(c.cycle, pc)
			c.lastILine = line
			c.haveILine = true
			if lat > c.cfg.Hier.LatL1 {
				c.fetchStallUntil = c.cycle + uint64(lat)
				return
			}
		}
		c.dispatch(c.fetchIdx)
		if c.fence != nil {
			return
		}
	}
}

// fetchPhantom models the fetch unit running ahead of the program end while
// the pipeline drains, speculatively pulling sequential lines into the
// L1I cache. The number of phantom lines depends on how long the drain
// takes, which is how timing differences become visible in the L1I-state
// trace (InvisiSpec KV1, CleanupSpec's unXpec KV2).
func (c *Core) fetchPhantom() {
	if len(c.rob) == 0 {
		return
	}
	if c.phantomPC == 0 {
		c.phantomPC = c.Hier.L1I.LineAddr(isa.PCOf(c.prog.Len())) + uint64(c.cfg.Hier.L1I.LineSize)
	}
	lat := c.Hier.AccessInst(c.cycle, c.phantomPC)
	c.phantomPC += uint64(c.cfg.Hier.L1I.LineSize)
	c.fetchStallUntil = c.cycle + uint64(lat)
}

// robPush appends to the ROB window. The window slides through robBuf as
// commit pops the front (c.rob = c.rob[1:]); when it reaches the end of the
// backing array the live entries are compacted back to the front, which —
// with the buffer sized at twice ROBSize — costs amortized O(1) pointer
// moves per dispatch and never reallocates. Each entry's RobIdx tracks its
// robBuf index (position in c.rob is RobIdx - robOff), kept current here
// through compaction; commit advances robOff and squash truncation leaves
// indices untouched, so no consumer ever scans for a position.
func (c *Core) robPush(d *DynInst) {
	if len(c.rob) == cap(c.rob) {
		if c.robBuf == nil || len(c.robBuf) < 2*c.cfg.ROBSize {
			c.robBuf = make([]*DynInst, 2*c.cfg.ROBSize)
		}
		n := copy(c.robBuf, c.rob)
		c.rob = c.robBuf[:n]
		c.robOff = 0
		for i, in := range c.rob {
			in.RobIdx = i
		}
		if c.sbOn {
			c.sbRebuild()
		}
	}
	d.RobIdx = c.robOff + len(c.rob)
	c.rob = append(c.rob, d)
}

func (c *Core) dispatch(idx int) {
	in := c.prog.Insts[idx]
	c.seq++
	d := c.dyn.alloc()
	d.Seq, d.Idx, d.In, d.PC = c.seq, idx, in, isa.PCOf(idx)

	readDep := func(slot int, r isa.Reg) {
		if p := c.renameReg[r]; p != nil {
			d.Deps[slot] = p
		} else {
			d.Vals[slot] = c.regs[r]
		}
	}
	switch {
	case in.Op == isa.OpMovImm:
		d.WritesReg = true
	case in.Op == isa.OpCmov:
		readDep(0, in.Src1)
		readDep(2, in.Dst)
		d.WritesReg = true
	case in.Op == isa.OpCmp:
		readDep(0, in.Src1)
		if !in.UseImm {
			readDep(1, in.Src2)
		}
	case in.Op.IsALU():
		readDep(0, in.Src1)
		if !in.UseImm {
			readDep(1, in.Src2)
		}
		d.WritesReg = true
	case in.Op == isa.OpLoad:
		readDep(0, in.Src1)
		d.WritesReg = true
	case in.Op == isa.OpStore:
		readDep(0, in.Src1)
		readDep(1, in.Src2)
	}
	if in.ReadsFlags() {
		if c.renameFlags != nil {
			d.FlagsDep = c.renameFlags
		} else {
			d.FlagsVal = c.flags
		}
	}
	d.WritesFlags = in.Op.SetsFlags()

	next := idx + 1
	switch in.Op {
	case isa.OpBranch:
		pred, hist := c.BP.Predict(d.PC)
		d.PredTaken = pred
		d.HistAtPred = hist
		if pred {
			next = in.Target
		}
		c.branchOrder = append(c.branchOrder, BranchRec{PC: d.PC, PredTaken: pred, Target: isa.PCOf(in.Target)})
	case isa.OpJmp:
		next = in.Target
		c.branchOrder = append(c.branchOrder, BranchRec{PC: d.PC, PredTaken: true, Target: isa.PCOf(in.Target)})
	case isa.OpFence:
		c.fence = d
	}

	if d.WritesReg {
		c.renameReg[in.Dst] = d
	}
	if d.WritesFlags {
		c.renameFlags = d
	}
	c.robPush(d)
	if c.sbOn {
		// After robPush: a window compaction in there renumbers the
		// producers' slots the mask refers to.
		c.sbComputeWait(d)
		c.unissued = append(c.unissued, int32(d.RobIdx))
	}
	c.stats.Fetched++
	c.fetchIdx = next
}

// sbComputeWait fills d's scoreboard wait mask with the robBuf slots of
// its still-pending register/flags producers. Producers already done or
// committed stay done for as long as d is live, so they need no bit.
func (c *Core) sbComputeWait(d *DynInst) {
	d.waitMask = [2]uint64{}
	for _, p := range d.Deps {
		if p != nil && p.State != StDone && p.State != StCommitted {
			d.waitMask[p.RobIdx>>6] |= 1 << (p.RobIdx & 63)
		}
	}
	if p := d.FlagsDep; p != nil && p.State != StDone && p.State != StCommitted {
		d.waitMask[p.RobIdx>>6] |= 1 << (p.RobIdx & 63)
	}
}

// sbRebuild recomputes the scoreboard after a window compaction renumbered
// every live RobIdx: completion bits from the live entries' states, wait
// masks from the dispatched entries' producer pointers, and the unissued
// list from the dispatched entries in ROB order — which is exactly the
// list's live content in its existing order, since both are seq-ordered
// and the list holds every dispatched entry. Slots of committed entries
// that left the ROB are irrelevant — any mask bit that referred to one was
// recomputed away, because its producer is committed.
func (c *Core) sbRebuild() {
	c.sbDone = [2]uint64{}
	c.unissued = c.unissued[:0]
	for _, in := range c.rob {
		switch in.State {
		case StDone, StCommitted:
			c.sbDone[in.RobIdx>>6] |= 1 << (in.RobIdx & 63)
		case StDispatched:
			c.sbComputeWait(in)
			c.unissued = append(c.unissued, int32(in.RobIdx))
		}
	}
}

// InFlightLoadsBefore calls fn for every in-flight (dispatched, executing
// or done) load older than seq, oldest first, stopping early when fn
// returns false. It is the load-queue view defenses scan (SpecLFB's
// isPrevNoUnsafe), walked over the ROB.
func (c *Core) InFlightLoadsBefore(seq uint64, fn func(*DynInst) bool) {
	for _, in := range c.rob {
		if in.Seq >= seq {
			return
		}
		if !in.IsLoad() || in.State == StCommitted || in.State == StSquashed {
			continue
		}
		if !fn(in) {
			return
		}
	}
}
