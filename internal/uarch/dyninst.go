package uarch

import (
	"github.com/sith-lab/amulet-go/internal/isa"
)

// InstState is the lifecycle state of a dynamic instruction.
type InstState uint8

// Dynamic instruction states.
const (
	StDispatched InstState = iota // in the ROB, waiting for operands
	StExecuting                   // issued, completes at DoneAt
	StDone                        // result available
	StCommitted                   // retired
	StSquashed                    // killed by a squash
)

var instStateNames = [...]string{"dispatched", "executing", "done", "committed", "squashed"}

// String returns the state name.
func (s InstState) String() string {
	if int(s) < len(instStateNames) {
		return instStateNames[s]
	}
	return "invalid"
}

// DynInst is one in-flight dynamic instruction.
type DynInst struct {
	Seq uint64   // global fetch sequence number (1-based)
	Idx int      // static program index
	In  isa.Inst // decoded instruction
	PC  uint64

	// RobIdx is the instruction's index in the ROB backing buffer; its
	// position in Core.ROB() is RobIdx - robOff. robPush keeps it current
	// through window compaction, so head checks and store-queue walks never
	// scan for a position.
	RobIdx int

	State  InstState
	DoneAt uint64 // completion cycle while Executing

	// Dependencies. Deps[0] = Src1 producer, Deps[1] = Src2 producer,
	// Deps[2] = old-Dst producer (CMOV). A nil producer means the value was
	// captured from the committed register file at dispatch (in Vals).
	Deps     [3]*DynInst
	Vals     [3]uint64
	FlagsDep *DynInst
	FlagsVal isa.Flags

	// Results.
	Result      uint64
	ResFlags    isa.Flags
	WritesReg   bool
	WritesFlags bool

	// Memory state.
	EffAddr    uint64 // virtual address (AddrValid)
	AddrValid  bool
	LoadVal    uint64
	Forwarded  bool   // value forwarded from an older in-flight store
	FwdFromSeq uint64 // sequence number of the forwarding store
	IsSplit    bool   // access crosses a cache-line boundary
	Line2      uint64 // second line address for split accesses
	Bypassed   bool   // load bypassed at least one unknown-address store
	FillIDs    []uint64

	// Branch state.
	PredTaken  bool
	HistAtPred uint64
	Taken      bool

	// Speculation state.
	SpecAtIssue bool // issued under an unresolved older branch (its shadow)
	Tainted     bool // STT: result derived from speculatively accessed data

	// waitMask is the scoreboard wait mask (unless Config.NoScoreboard): one bit per robBuf slot of each register/flags
	// producer that had not completed when this instruction dispatched.
	// DepsDone then reduces to waitMask &^ Core.sbDone == 0 — producers of
	// a live instruction only ever advance toward completion (a squashed
	// producer implies this instruction was squashed with it), so a mask
	// computed at dispatch never needs per-producer re-checks. Rebuilt on
	// ROB-window compaction, when slots are renumbered.
	waitMask [2]uint64
}

// IsLoad reports whether the instruction is a load.
func (d *DynInst) IsLoad() bool { return d.In.Op == isa.OpLoad }

// IsStore reports whether the instruction is a store.
func (d *DynInst) IsStore() bool { return d.In.Op == isa.OpStore }

// IsBranch reports whether the instruction is a conditional branch.
func (d *DynInst) IsBranch() bool { return d.In.Op == isa.OpBranch }

// SrcVal returns the resolved value of dependency slot i, reading the
// producer's result when one exists.
func (d *DynInst) SrcVal(i int) uint64 {
	if p := d.Deps[i]; p != nil {
		return p.Result
	}
	return d.Vals[i]
}

// Flags returns the resolved incoming flags value.
func (d *DynInst) Flags() isa.Flags {
	if d.FlagsDep != nil {
		return d.FlagsDep.ResFlags
	}
	return d.FlagsVal
}

// DepsDone reports whether every register/flags dependency has produced its
// result.
func (d *DynInst) DepsDone() bool {
	for _, p := range d.Deps {
		if p != nil && p.State != StDone && p.State != StCommitted {
			return false
		}
	}
	if d.FlagsDep != nil && d.FlagsDep.State != StDone && d.FlagsDep.State != StCommitted {
		return false
	}
	return true
}

// TaintedOperand reports whether any register dependency carries an STT
// taint. Values captured from the committed register file are never
// tainted.
func (d *DynInst) TaintedOperand() bool {
	for _, p := range d.Deps {
		if p != nil && p.Tainted {
			return true
		}
	}
	return false
}

// AddrDepTainted reports whether the address operand (Src1) of a memory
// instruction is tainted: the condition under which STT must block a
// transmitter.
func (d *DynInst) AddrDepTainted() bool {
	p := d.Deps[0]
	return p != nil && p.Tainted
}

// byteSpan is the set of wrapped sandbox offsets a memory access touches.
// Accesses are at most 8 bytes, so the offsets live in a fixed array and
// the overlap/cover checks are allocation-free nested loops over at most
// 8x8 elements — the load/store-queue search runs these on every load.
type byteSpan struct {
	off [8]uint64
	n   int
}

// spanOf returns the wrapped sandbox offsets the access touches.
func spanOf(sb isa.Sandbox, va uint64, size uint8) byteSpan {
	var s byteSpan
	s.n = int(size)
	for k := uint8(0); k < size; k++ {
		s.off[k] = (sb.ByteAddr(va, k) - isa.DataBase) & sb.Mask()
	}
	return s
}

// overlaps reports whether two accesses share at least one byte.
func (a *byteSpan) overlaps(b *byteSpan) bool {
	for i := 0; i < a.n; i++ {
		for j := 0; j < b.n; j++ {
			if a.off[i] == b.off[j] {
				return true
			}
		}
	}
	return false
}

// covers reports whether access a fully contains access b.
func (a *byteSpan) covers(b *byteSpan) bool {
	for j := 0; j < b.n; j++ {
		found := false
		for i := 0; i < a.n; i++ {
			if a.off[i] == b.off[j] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// dynArena recycles DynInst structs across the inputs a core executes. The
// pipeline dispatches thousands of dynamic instructions per test case;
// allocating each one individually was the second-largest allocation source
// in campaign profiles. Instructions are bump-allocated from fixed-size
// chunks (so pointers handed to the ROB and defenses stay stable) and the
// whole arena rewinds in O(1) at the next ResetForInput, when no reference
// from the previous case can be live.
type dynArena struct {
	chunks [][]DynInst
	chunk  int // index of the chunk currently being filled
	next   int // next free slot in that chunk
}

const dynArenaChunk = 256

// alloc returns a zeroed DynInst, keeping the recycled FillIDs capacity.
func (a *dynArena) alloc() *DynInst {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]DynInst, dynArenaChunk))
	}
	d := &a.chunks[a.chunk][a.next]
	a.next++
	if a.next == dynArenaChunk {
		a.chunk++
		a.next = 0
	}
	fillIDs := d.FillIDs[:0]
	*d = DynInst{FillIDs: fillIDs}
	return d
}

// reset rewinds the arena; previously handed-out instructions are reused.
func (a *dynArena) reset() {
	a.chunk, a.next = 0, 0
}
