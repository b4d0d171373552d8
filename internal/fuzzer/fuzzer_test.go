package fuzzer

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// quickConfig returns a small campaign configuration against the baseline.
func quickConfig(seed int64, programs int) Config {
	return Config{
		Contract: contract.CTSeq,
		Gen:      generator.DefaultConfig(),
		Exec: executor.Config{
			Core:      uarch.DefaultConfig(),
			Format:    executor.FormatL1DTLB,
			Prime:     executor.PrimeFill,
			Strategy:  executor.StrategyOpt,
			BootInsts: 500,
		},
		DefenseFactory:  func() uarch.Defense { return uarch.NopDefense{} },
		Seed:            seed,
		Programs:        programs,
		BaseInputs:      5,
		MutantsPerInput: 4,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	good := quickConfig(1, 5)
	if _, err := NewUnitGen(good, 1); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	bad := good
	bad.Programs = 0
	if _, err := NewUnitGen(bad, 1); err == nil {
		t.Errorf("zero programs accepted")
	}
	bad = good
	bad.DefenseFactory = nil
	if _, err := NewUnitGen(bad, 1); err == nil {
		t.Errorf("nil defense factory accepted")
	}
	bad = good
	bad.Gen.Pages = 3
	if err := bad.Validate(); err == nil {
		t.Errorf("invalid generator config accepted")
	}
	bad = good
	bad.Exec.Core.ROBSize = 1
	if err := bad.Validate(); err == nil {
		t.Errorf("invalid core config accepted")
	}
}

func TestMutateRegsDefaultsFollowContract(t *testing.T) {
	cfg := quickConfig(1, 1)
	if !cfg.mutateRegs() {
		t.Errorf("CT-SEQ does not observe registers; mutants should vary them by default")
	}
	// ARCH-SEQ observes registers, so mutants must not vary them unless
	// explicitly overridden (behaviourally: engine's
	// TestCampaignSTTPatchedClean).
	cfg.Contract = contract.ArchSeq
	if cfg.mutateRegs() {
		t.Errorf("ARCH-SEQ observes registers; mutants must not vary them by default")
	}
	on := true
	cfg.MutateRegs = &on
	if !cfg.mutateRegs() {
		t.Errorf("explicit MutateRegs override ignored")
	}
	if _, err := NewUnitGen(cfg, 1); err != nil {
		t.Fatal(err)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{}
	if _, ok := r.FirstDetection(); ok {
		t.Errorf("empty result has a detection time")
	}
	// The engine orders violations by program index, not detection time.
	r.Violations = []*Violation{{DetectedAt: 5}, {DetectedAt: 2}, {DetectedAt: 3}}
	if d, ok := r.FirstDetection(); !ok || d != 2 {
		t.Errorf("FirstDetection = %v, %v; want 2, true", d, ok)
	}
}
