package uarch_test

import (
	"fmt"
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestScoreboardBitIdentity is the direct equivalence proof of the issue
// scoreboard: for every defense, random programs and
// inputs with state carried across inputs, the scoreboard walk (unissued
// list + completion bitmask) and the reference full-ROB scan with
// per-producer DepsDone checks must produce identical cycle counts, stats,
// debug logs, µarch-order traces and snapshots.
func TestScoreboardBitIdentity(t *testing.T) {
	for name, mk := range schedDefenses() {
		t.Run(name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 271
			gcfg.Pages = 2
			g := generator.New(gcfg)
			sb := g.Sandbox()
			sbCfg := uarch.DefaultConfig()
			refCfg := sbCfg
			refCfg.NoScoreboard = true
			sc := uarch.NewCore(sbCfg, mk())
			ref := uarch.NewCore(refCfg, mk())
			for p := 0; p < 20; p++ {
				prog := g.Program()
				for k := 0; k < 3; k++ {
					in := g.Input()
					compareCores(t, fmt.Sprintf("%s prog %d input %d", name, p, k), sc, ref, prog, sb, in)
				}
			}
		})
	}
}

// TestScoreboardBitIdentitySmallROB stresses the compaction rebuild (RobIdx
// renumbering re-derives every wait mask and the done bitmask) and squash
// truncation of the unissued list with a tiny window and narrow pipeline.
func TestScoreboardBitIdentitySmallROB(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 272
	g := generator.New(gcfg)
	sb := g.Sandbox()
	sbCfg := uarch.DefaultConfig()
	sbCfg.ROBSize = 8
	sbCfg.IssueWidth = 2
	sbCfg.FetchWidth = 2
	sbCfg.CommitWidth = 2
	refCfg := sbCfg
	refCfg.NoScoreboard = true
	sc := uarch.NewCore(sbCfg, nil)
	ref := uarch.NewCore(refCfg, nil)
	for p := 0; p < 40; p++ {
		prog := g.Program()
		in := g.Input()
		compareCores(t, fmt.Sprintf("prog %d", p), sc, ref, prog, sb, in)
	}
}

// TestCalendarFillBitIdentity is the core-level equivalence proof of the
// calendar-ring fill queue: with fills routed through the ring (default)
// versus pinned to the reference min-heap (HeapFills), every defense must
// see identical fill batches — same cycles, same id order — and therefore
// produce identical runs.
func TestCalendarFillBitIdentity(t *testing.T) {
	for name, mk := range schedDefenses() {
		t.Run(name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 273
			gcfg.Pages = 2
			g := generator.New(gcfg)
			sb := g.Sandbox()
			ringCfg := uarch.DefaultConfig()
			heapCfg := ringCfg
			heapCfg.Hier.HeapFills = true
			ring := uarch.NewCore(ringCfg, mk())
			heap := uarch.NewCore(heapCfg, mk())
			for p := 0; p < 12; p++ {
				prog := g.Program()
				for k := 0; k < 2; k++ {
					in := g.Input()
					compareCores(t, fmt.Sprintf("%s prog %d input %d", name, p, k),
						ring, heap, prog, sb, in)
				}
			}
		})
	}
}
