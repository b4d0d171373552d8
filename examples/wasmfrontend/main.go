// Stack-frontend case study: the same model-based relational testing
// pipeline, driven by WebAssembly-subset programs instead of the toy RISC
// ISA. The example first walks the shipped Spectre-v1 stack gadget through
// the relational check by hand — two contract-equivalent inputs, differing
// cache states on the unprotected core, identical ones under fenceall —
// and then lets the fuzzer rediscover a stack-machine leak on its own with
// the campaign's ISA frontend switched to wasm.
//
// Run with: go run ./examples/wasmfrontend
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// gadgetDemo runs the shipped gadget on one core with two inputs that
// differ only in the secret byte and reports whether the final cache
// states distinguish them.
func gadgetDemo(name string, defense uarch.Defense) {
	sb := isa.Sandbox{Pages: 1}
	prog := wasm.SpectreV1Gadget().Lowered()
	mk := func(secret byte) *isa.Input {
		in := isa.NewInput(sb)
		in.Regs[0] = 200 // idx, out of bounds
		in.Regs[1] = 128 // &bound
		in.Mem[128] = 64 // bound
		in.Mem[200] = secret
		return in
	}
	core := uarch.NewCore(uarch.DefaultConfig(), defense)
	snapA := testgadget.Run(core, prog, sb, mk(10), testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, mk(60), testgadget.PrimeInvalidate)
	if snapA.EqualCaches(snapB) {
		fmt.Printf("%-10s cache states identical — the secret stays invisible\n", name)
	} else {
		fmt.Printf("%-10s cache states DIFFER — the transient loads encoded the secret\n", name)
	}
}

// campaign fuzzes one defense with the wasm frontend and reports the first
// violation found (or that the budget ran out).
func campaign(defense string) {
	spec, err := experiments.DefenseByName(defense)
	if err != nil {
		log.Fatal(err)
	}
	scale := experiments.QuickScale()
	scale.Instances = 2
	scale.Programs = 60
	ccfg := experiments.CampaignConfig(spec, scale)
	ccfg.Base.Frontend = wasm.Frontend
	ccfg.Base.StopOnFirstViolation = true

	res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %6d tests in %8v: ", defense, res.TestCases, res.Elapsed.Round(1e6))
	if !res.DetectedViolation() {
		fmt.Println("no violation (the guarantee holds at this budget)")
		return
	}
	v := res.Violations[0]
	fmt.Printf("VIOLATION (frontend=%s)\n", v.Frontend)
	if v.Source != nil {
		fmt.Printf("violating stack program:\n%s", v.Source)
	}
	fmt.Printf("lowered µops:\n%s\n", v.Program)
}

func main() {
	fmt.Println("== Spectre-v1 stack gadget, by hand ==")
	fmt.Print(wasm.SpectreV1Gadget())
	gadgetDemo("baseline", nil)
	gadgetDemo("fenceall", fenceall.New())

	fmt.Println("\n== fuzzing with the wasm frontend ==")
	campaign("baseline")
	campaign("fenceall")
}
