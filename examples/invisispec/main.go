// InvisiSpec case study: discover the UV1 implementation bug, verify the
// patch, then amplify contention to uncover the deeper UV2 interference
// leak — the paper's §4.5 arc in one program.
//
// Run with: go run ./examples/invisispec
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func campaign(name string, patched bool, ways, mshrs int, programs int, seed int64) *fuzzer.CampaignResult {
	spec, err := experiments.DefenseByName("invisispec")
	if err != nil {
		log.Fatal(err)
	}
	if patched {
		spec.Factory = func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }
	}
	scale := experiments.QuickScale()
	scale.Instances = 2
	scale.Programs = programs
	scale.Seed = seed
	ccfg := experiments.CampaignConfig(spec, scale)
	ccfg.Base.Exec.Core.Hier.L1D.Ways = ways
	ccfg.Base.Exec.Core.Hier.MSHRs = mshrs
	ccfg.Base.StopOnFirstViolation = true

	res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
	if err != nil {
		log.Fatal(err)
	}
	verdict := "no violation"
	if res.DetectedViolation() {
		d, _ := res.AvgDetectionTime()
		verdict = fmt.Sprintf("VIOLATION in %v", d.Round(1e6))
	}
	fmt.Printf("%-42s %8d tests  %-22s\n", name, res.TestCases, verdict)
	return res
}

func main() {
	fmt.Println("== step 1: test the open-source InvisiSpec implementation ==")
	res := campaign("InvisiSpec (unpatched), default sizes", false, 8, 256, 60, 2)

	if res.DetectedViolation() {
		spec, _ := experiments.DefenseByName("invisispec")
		scale := experiments.QuickScale()
		exec := executor.New(experiments.CampaignConfig(spec, scale).Base.Exec, spec.Factory())
		rep, err := analysis.Analyze(exec, res.Violations[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nroot cause: %s\n  %s\n\n", rep.Signature, rep.Detail)
	}

	fmt.Println("== step 2: apply the paper's fix (replacements only for safe loads) ==")
	campaign("InvisiSpec (patched), default sizes", true, 8, 256, 60, 2)

	fmt.Println("\n== step 3: amplify contention (2-way L1D, 2 MSHRs) ==")
	fmt.Println("   smaller structures make the same-core speculative interference")
	fmt.Println("   variant (UV2) observable within a small test budget:")
	campaign("InvisiSpec (patched), 2 ways / 2 MSHRs", true, 2, 2, 250, 3)
}
