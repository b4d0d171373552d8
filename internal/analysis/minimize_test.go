package analysis_test

import (
	"strings"
	"testing"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestMinimizeShrinksViolation finds a baseline violation and checks that
// minimization removes a substantial part of the random program while the
// violation persists.
func TestMinimizeShrinksViolation(t *testing.T) {
	cfg := baseConfig(1, 30)
	cfg.DefenseFactory = func() uarch.Defense { return uarch.NopDefense{} }
	exec, v := findViolation(t, cfg, 1)

	min, removed, err := analysis.Minimize(exec, contract.CTSeq, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("removed %d of %d instructions; gadget:\n%s",
		removed, v.Program.Len(), analysis.Compact(min.Program))
	if removed == 0 {
		t.Errorf("minimizer removed nothing from a ~50-instruction random program")
	}
	if min.Program.Len() != v.Program.Len() {
		t.Errorf("minimizer must preserve indices (NOP replacement)")
	}
	if min.TraceA.Equal(min.TraceB) {
		t.Errorf("minimized violation no longer violates")
	}
	// The original record must be untouched.
	nops := 0
	for _, in := range v.Program.Insts {
		if in.Op == isa.OpNop {
			nops++
		}
	}
	if nops == v.Program.Len() {
		t.Errorf("original program was modified")
	}
}

func TestCompactSkipsNops(t *testing.T) {
	p := &isa.Program{Insts: []isa.Inst{
		isa.Nop(),
		isa.MovImm(1, 5),
		isa.Nop(),
		isa.Branch(isa.CondEQ, 4),
		isa.Nop(),
	}}
	out := analysis.Compact(p)
	if strings.Contains(out, "NOP") {
		t.Errorf("Compact kept NOPs:\n%s", out)
	}
	if !strings.Contains(out, ".L1 ") || !strings.Contains(out, ".L3 ") {
		t.Errorf("Compact lost original labels:\n%s", out)
	}
}
