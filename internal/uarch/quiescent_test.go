package uarch_test

import (
	"fmt"
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestQuiescentSkipBitIdentity is the direct equivalence proof of
// quiescent-span cycle skipping: for every defense, a core that skips
// provably idle spans must produce identical cycle counts, stats, debug
// logs, µarch-order traces and snapshots to a core ticking through every
// cycle (Config.NoCycleSkip). compareCores is the pipeline suite's full
// observable-state comparison.
func TestQuiescentSkipBitIdentity(t *testing.T) {
	for name, mk := range schedDefenses() {
		t.Run(name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 1234
			gcfg.Pages = 2
			g := generator.New(gcfg)
			sb := g.Sandbox()
			skipCfg := uarch.DefaultConfig()
			refCfg := skipCfg
			refCfg.NoCycleSkip = true
			skip := uarch.NewCore(skipCfg, mk())
			ref := uarch.NewCore(refCfg, mk())
			for p := 0; p < 15; p++ {
				prog := g.Program()
				for k := 0; k < 3; k++ {
					in := g.Input()
					compareCores(t, fmt.Sprintf("%s prog %d input %d", name, p, k),
						skip, ref, prog, sb, in)
				}
			}
		})
	}
}

// TestQuiescentSkipSmallROB stresses the skip proofs where they are
// hardest: a tiny window keeps the ROB full (the pure-blocked fetch case),
// a narrow issue stage leaves issuable instructions dispatched across
// cycles, and fences reach the head slowly. It runs with the issue
// scoreboard and with the naive per-cycle walk (Config.NoScoreboard), whose
// blocked-instruction test the skip proof falls back to.
func TestQuiescentSkipSmallROB(t *testing.T) {
	for _, mode := range []struct {
		name         string
		noScoreboard bool
	}{{"scoreboard", false}, {"naive", true}} {
		t.Run(mode.name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 321
			g := generator.New(gcfg)
			sb := g.Sandbox()
			skipCfg := uarch.DefaultConfig()
			skipCfg.ROBSize = 8
			skipCfg.IssueWidth = 2
			skipCfg.FetchWidth = 2
			skipCfg.CommitWidth = 2
			skipCfg.NoScoreboard = mode.noScoreboard
			refCfg := skipCfg
			refCfg.NoCycleSkip = true
			skip := uarch.NewCore(skipCfg, nil)
			ref := uarch.NewCore(refCfg, nil)
			for p := 0; p < 40; p++ {
				prog := g.Program()
				in := g.Input()
				compareCores(t, fmt.Sprintf("%s prog %d", mode.name, p), skip, ref, prog, sb, in)
			}
		})
	}
}
