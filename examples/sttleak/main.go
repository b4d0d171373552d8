// STT case study: find the known KV3 leak (tainted speculative stores
// installing D-TLB entries, paper Figure 9) and show that the DOLMA-style
// patch removes it. STT is tested against ARCH-SEQ — its non-interference
// guarantee allows anything derived from architectural values to leak, so
// only *speculatively accessed* data counts as secret — and with a
// 128-page sandbox so that leaked addresses span many TLB pages.
//
// Run with: go run ./examples/sttleak
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
)

func run(defense string, seed int64) {
	spec, err := experiments.DefenseByName(defense)
	if err != nil {
		log.Fatal(err)
	}
	scale := experiments.QuickScale()
	scale.Instances = 2
	scale.Programs = 120
	scale.Seed = seed
	ccfg := experiments.CampaignConfig(spec, scale)
	ccfg.Base.StopOnFirstViolation = true

	res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %6d tests in %8v: ", defense, res.TestCases, res.Elapsed.Round(1e6))
	if !res.DetectedViolation() {
		fmt.Println("no violation (the guarantee holds at this budget)")
		return
	}
	d, _ := res.AvgDetectionTime()
	fmt.Printf("VIOLATION in %v\n", d.Round(1e6))

	exec := executor.New(ccfg.Base.Exec, spec.Factory())
	rep, err := analysis.Analyze(exec, res.Violations[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  signature: %s\n  %s\n", rep.Signature, rep.Detail)
	fmt.Printf("\nµarch trace diff (TLB pages carry the secret):\n%s\n",
		res.Violations[0].TraceA.Diff(res.Violations[0].TraceB))
}

func main() {
	fmt.Println("== STT (unpatched open-source implementation) vs ARCH-SEQ ==")
	run("stt", 9)
	fmt.Println("\n== STT with tainted stores blocked (DOLMA's fix) ==")
	run("stt-patched", 9)
}
