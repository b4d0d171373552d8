package main

import (
	"fmt"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	_ "github.com/sith-lab/amulet-go/internal/isa/wasm" // registers the wasm frontend
)

// Every workload uses the paper's input shape: 8 base inputs, each with 5
// contract-preserving mutants, per test program.
const (
	baseInputs = 8
	mutants    = 5
	// workers is the engine's worker count, fixed so that numbers from
	// boxes with different core counts stay comparable.
	workers = 2
)

// workload is one benchmark input set: a list of defense configurations,
// each run as an engine campaign of instances × programs work units per
// round. README.md records why each was chosen.
type workload struct {
	name      string
	defenses  []string
	frontend  string
	strategy  string
	instances int
	programs  int
}

var workloads = []workload{
	{
		name: "paper-1page",
		defenses: []string{"baseline", "invisispec", "invisispec-patched",
			"cleanupspec", "cleanupspec-patched", "speclfb", "speclfb-patched"},
		frontend: isa.ToyName, strategy: engine.StrategyRandom,
		instances: 4, programs: 50,
	},
	{
		name:     "stt-128page",
		defenses: []string{"stt", "stt-patched"},
		frontend: isa.ToyName, strategy: engine.StrategyRandom,
		instances: 2, programs: 30,
	},
	{
		name:     "wasm-corpus",
		defenses: []string{"invisispec"},
		frontend: "wasm", strategy: engine.StrategyCorpus,
		instances: 4, programs: 128,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// random reports whether the workload's campaigns can be replayed unit by
// unit through the public stage API (the corpus strategy's admission step
// is internal to the engine).
func (w workload) random() bool { return w.strategy == engine.StrategyRandom }

// units is the number of work units in one campaign.
func (w workload) units() int { return w.instances * w.programs }

// campaignConfig builds the paper configuration of one defense at the
// workload's campaign shape and the given campaign seed.
func (w workload) campaignConfig(defense string, seed int64) (fuzzer.CampaignConfig, error) {
	spec, err := experiments.DefenseByName(defense)
	if err != nil {
		return fuzzer.CampaignConfig{}, err
	}
	fe, err := isa.FrontendByName(w.frontend)
	if err != nil {
		return fuzzer.CampaignConfig{}, err
	}
	ccfg := experiments.CampaignConfig(spec, experiments.Scale{
		Instances:  w.instances,
		Programs:   w.programs,
		BaseInputs: baseInputs,
		Mutants:    mutants,
		BootInsts:  executor.DefaultBootInsts,
		Seed:       seed,
	})
	ccfg.Base.Frontend = fe
	if w.strategy == engine.StrategyCorpus {
		// The engine switches coverage on for corpus campaigns; set-up
		// boots the same executor configuration.
		ccfg.Base.Exec.Coverage = true
	}
	return ccfg, nil
}

// campaignSeed derives the seed of campaign c of round r from the
// workload seed, with the same public derivation the engine uses for
// instances and units.
func campaignSeed(seed int64, round, c int) int64 {
	return fuzzer.UnitSeed(fuzzer.InstanceSeed(seed, round), c)
}
