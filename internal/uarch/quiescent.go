package uarch

import "github.com/sith-lab/amulet-go/internal/isa"

// Quiescent-span cycle skipping.
//
// The writeback watermark and the issue scoreboard make an idle cycle cheap
// — a handful of comparisons — but campaigns still pay for every one of
// them: a single L2-missing load under a fenced pipeline burns tens of
// cycles in which fetch is stalled, nothing issues, nothing writes back and
// nothing commits. The per-cycle loop overhead (Tick, empty
// OnFills/OnTick, four stage calls that immediately return) then tops the
// Core.Run profile.
//
// skipQuiescentSpan removes those cycles wholesale. At the end of a cycle it
// tries to prove that every stage of every following cycle, up to some bound,
// would be a complete no-op — not merely cheap, but free of any state change
// or observable side effect — and advances c.cycle to one before the bound so
// the loop's increment lands exactly on the first cycle that can act. The
// proof is conservative: whenever a stage *might* act, the span ends there
// (or no skip happens at all), so the skipped execution is bit-identical to
// the reference loop by construction. Config.NoCycleSkip pins the reference
// cycle-by-cycle loop, and TestQuiescentSkipBitIdentity compares the two
// across every defense.
//
// The per-stage no-op proofs:
//
//   - Memory: Hier.Tick completes nothing before Hier.NextReady(), and
//     OnFills with an empty batch is a no-op by interface contract. MSHR,
//     LFB and port occupancy are pure functions of the cycle — they have no
//     per-cycle tick to miss.
//   - Defense: def.TickIdle() proves OnTick has no pending work, and no
//     hook that could create work (commit, branch resolution, squash) runs
//     inside the span.
//   - Commit: the ROB head is not done, and nothing inside the span can
//     complete it (writeback is bounded below).
//   - Issue: every dispatched instruction is blocked in a way the issue
//     walk skips with a side-effect-free early return — a pending
//     register/flags producer, or a fence away from the ROB head. Stalls
//     with observable re-attempt side effects (store-queue blocks, defense
//     delays — they invoke hooks and coverage) forbid skipping entirely.
//     Blocked-on-producer is stable: only a writeback can release it, and
//     writebacks bound the span.
//   - Writeback: the span ends before the earliest executing DoneAt, found
//     by the same ROB walk as the issue proof.
//   - Fetch: blocked by an uncommitted fence for the whole span, stalled
//     until fetchStallUntil (which then bounds the span), or pure-blocked on
//     a full ROB that cannot drain inside the span. An active fetch —
//     including the phantom fetch past the program end — forbids skipping.
//
// MaxCycles caps every span at MaxCycles+1 so a wedged pipeline trips the
// runaway guard at the same cycle value the reference loop would.

// skipQuiescentSpan advances c.cycle to just before the next cycle in which
// any pipeline stage can act, when every intervening cycle is provably a
// no-op. Called at the end of a cycle, after all stages ran.
func (c *Core) skipQuiescentSpan() {
	// Cheapest, most-discriminating rejections first: the ROB head is
	// frequently done and a busy cycle usually seeds the next one — both
	// are plain field reads, so the common can't-skip case costs a couple
	// of loads before the interface call and the ROB walk below.
	if len(c.rob) > 0 && c.rob[0].State == StDone {
		return // the head would commit next cycle
	}
	if c.lastActCycle == c.cycle {
		// Something issued, wrote back or committed this cycle, so the
		// proof walk below would almost certainly fail — the new activity
		// seeds next cycle's. Spend the walk only on cycles that were
		// themselves quiet; a span entered one cycle late is still skipped
		// from its second cycle on, and forgoing a skip is always sound.
		return
	}
	if !c.def.TickIdle() {
		return
	}
	bound := c.Hier.NextReady()
	if m := c.cfg.MaxCycles + 1; m < bound {
		bound = m
	}
	if c.fence == nil {
		switch {
		case c.fetchStallUntil > c.cycle+1:
			if c.fetchStallUntil < bound {
				bound = c.fetchStallUntil
			}
		case c.fetchIdx < c.prog.Len() && len(c.rob) >= c.cfg.ROBSize:
			// ROB full: fetch early-returns, and the window cannot drain
			// inside the span because nothing commits.
		default:
			return // fetch (or the phantom fetch) acts next cycle
		}
	}
	for _, in := range c.rob {
		switch in.State {
		case StExecuting:
			if in.DoneAt < bound {
				bound = in.DoneAt
			}
		case StDispatched:
			if !c.issueBlockedPure(in) {
				return
			}
		}
	}
	if bound > c.cycle+1 {
		c.cycle = bound - 1
	}
}

// issueBlockedPure reports whether the issue walk's attempt on
// dispatched instruction in is a side-effect-free early return that stays
// one for every cycle of a span in which no writeback or commit occurs. It
// mirrors attemptIssue case by case; anything that would issue, or whose
// re-attempt has observable side effects (address resolution, store-queue
// search, defense and coverage hooks), returns false.
func (c *Core) issueBlockedPure(in *DynInst) bool {
	switch {
	case in.In.Op == isa.OpNop, in.In.Op == isa.OpJmp:
		return false // always issue
	case in.In.Op == isa.OpFence:
		return in != c.rob[0] // serialized: issues only at the head
	case in.IsBranch(), in.In.Op.IsALU():
		return !c.depsDone(in) // the scoreboard mask when it is on
	case in.IsLoad():
		p := in.Deps[0]
		return p != nil && p.State != StDone && p.State != StCommitted
	case in.IsStore():
		p := in.Deps[0]
		if in.AddrValid {
			p = in.Deps[1] // data phase
		}
		return p != nil && p.State != StDone && p.State != StCommitted
	}
	return false
}
