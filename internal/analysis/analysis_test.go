package analysis_test

import (
	"context"

	"strings"
	"testing"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// findViolation runs a small engine campaign of the given instance count
// until the first violation and returns it with a fresh executor for the
// replay.
func findViolation(t *testing.T, cfg fuzzer.Config, instances int) (*executor.Executor, *fuzzer.Violation) {
	t.Helper()
	cfg.StopOnFirstViolation = true
	res, err := engine.RunCampaign(context.Background(), engine.Config{
		Campaign: fuzzer.CampaignConfig{Base: cfg, Instances: instances},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("campaign found no violation to analyze")
	}
	return executor.New(cfg.Exec, cfg.DefenseFactory()), res.Violations[0]
}

func baseConfig(seed int64, programs int) fuzzer.Config {
	return fuzzer.Config{
		Contract: contract.CTSeq,
		Gen:      generator.DefaultConfig(),
		Exec: executor.Config{
			Core:      uarch.DefaultConfig(),
			Format:    executor.FormatL1DTLB,
			Prime:     executor.PrimeFill,
			Strategy:  executor.StrategyOpt,
			BootInsts: 500,
		},
		Seed:            seed,
		Programs:        programs,
		BaseInputs:      8,
		MutantsPerInput: 5,
	}
}

// TestClassifyInvisiSpecUV1 verifies that InvisiSpec violations are
// classified as speculative evictions and render a complete report.
func TestClassifyInvisiSpecUV1(t *testing.T) {
	cfg := baseConfig(2, 120)
	cfg.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	exec, v := findViolation(t, cfg, 1)

	rep, err := analysis.Analyze(exec, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("signature: %s — %s", rep.Signature, rep.Detail)
	if rep.Signature != analysis.SigSpecEviction && rep.Signature != analysis.SigSpecInstall {
		t.Errorf("unexpected signature %q for InvisiSpec UV1", rep.Signature)
	}
	out := rep.String()
	for _, want := range []string{"Contract violation", "Test program", "trace diff", "Input A"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestClassifySTTKV3 verifies the TLB-leak signature for STT.
func TestClassifySTTKV3(t *testing.T) {
	cfg := baseConfig(9, 200)
	cfg.Contract = contract.ArchSeq
	cfg.Gen.Pages = 128
	cfg.DefenseFactory = func() uarch.Defense { return stt.New(stt.Config{}) }
	exec, v := findViolation(t, cfg, 1)

	rep, err := analysis.Analyze(exec, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("signature: %s — %s", rep.Signature, rep.Detail)
	if rep.Signature != analysis.SigTLBLeak {
		t.Errorf("expected %q for STT KV3, got %q", analysis.SigTLBLeak, rep.Signature)
	}
}

// TestClassifyUV2Interference verifies the MSHR-interference signature on
// the amplified, patched InvisiSpec.
func TestClassifyUV2Interference(t *testing.T) {
	cfg := baseConfig(5, 400)
	cfg.Exec.Core.Hier.L1D.Ways = 2
	cfg.Exec.Core.Hier.MSHRs = 2
	cfg.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }
	exec, v := findViolation(t, cfg, 1)

	rep, err := analysis.Analyze(exec, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("signature: %s — %s", rep.Signature, rep.Detail)
	if rep.Signature != analysis.SigMSHRInterference {
		t.Errorf("expected %q for UV2, got %q", analysis.SigMSHRInterference, rep.Signature)
	}
}

// TestDedupGroupsBySignature checks the unique-violation grouping. The
// SpecLFB campaign runs two instances: the first alone finds nothing within
// this budget.
func TestDedupGroupsBySignature(t *testing.T) {
	cfg := baseConfig(7, 250)
	cfg.Exec.Prime = executor.PrimeInvalidate
	cfg.DefenseFactory = func() uarch.Defense { return speclfb.New(speclfb.Config{}) }
	exec, v := findViolation(t, cfg, 2)

	rep, err := analysis.Analyze(exec, v)
	if err != nil {
		t.Fatal(err)
	}
	groups := analysis.Dedup([]*analysis.Report{rep, rep})
	if len(groups) != 1 {
		t.Errorf("expected one signature group, got %d", len(groups))
	}
	if len(groups[rep.Signature]) != 2 {
		t.Errorf("expected 2 reports under %q", rep.Signature)
	}
}
