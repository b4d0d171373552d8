package experiments_test

import (
	"context"
	"errors"
	"testing"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// violationFingerprint digests the full violation set of a campaign —
// defense, program index, contract-trace hash, and the exact bytes of both
// violating inputs — in aggregation order. Identical fingerprints mean
// identical violation sets bit for bit. The algorithm moved to
// fuzzer.ViolationFingerprint (cmd/amulet prints it so CI can diff runs);
// this wrapper keeps the test sites and the historical golden values as-is.
func violationFingerprint(vs []*fuzzer.Violation) uint64 {
	return fuzzer.ViolationFingerprint(vs)
}

// TestViolationSetDeterminism pins the campaign outcome of a fixed seed to
// golden fingerprints captured before the allocation-free hot-path rewrite
// (scratch arenas, bitset usage tracking, fill-queue heap, hash-first trace
// comparison). It fails if any optimization — present or future — shifts a
// single violating input byte. Each budget runs at two worker counts (the
// engine's schedule-independence contract) and with both the default
// incremental dirty-set prime and the reference full prime
// (Config.FullPrime): every combination must hit the same golden
// fingerprint, which is what pins the incremental prime as bit-identical.
func TestViolationSetDeterminism(t *testing.T) {
	golden := []struct {
		defense     string
		violations  int
		fingerprint uint64
	}{
		// Re-pinned once when the generator switched from math/rand to the
		// counter-based splitmix64 stream (generator/rng.go): every random
		// draw changed value, so the campaigns generate different programs
		// and inputs.
		{"baseline", 8, 0xab934f6f38c453de},
		{"cleanupspec", 4, 0x2f34157be71a08ad},
		{"invisispec", 7, 0x51c232367dd769ba},
	}
	// Reference-path pins for the PR-7 perf levers. The main sweep below
	// runs the defaults — scoreboard issue, calendar-ring fills, specialized
	// contract model — so each lever's reference path gets its own pass
	// against the same goldens: one per knob (to attribute a failure) and
	// one with all three pinned at once. A full cross with the
	// 12-combination sweep below would add nothing but runtime: the levers
	// touch disjoint machinery.
	refCombos := []struct {
		name  string
		apply func(*fuzzer.Config)
	}{
		{"no-scoreboard", func(c *fuzzer.Config) { c.Exec.Core.NoScoreboard = true }},
		{"heap-fills", func(c *fuzzer.Config) { c.Exec.Core.Hier.HeapFills = true }},
		{"reference-model", func(c *fuzzer.Config) { c.ReferenceModel = true }},
		{"all-reference", func(c *fuzzer.Config) {
			c.Exec.Core.NoScoreboard = true
			c.Exec.Core.Hier.HeapFills = true
			c.ReferenceModel = true
		}},
	}
	for _, g := range golden {
		for _, combo := range refCombos {
			spec, err := experiments.DefenseByName(g.defense)
			if err != nil {
				t.Fatal(err)
			}
			sc := experiments.Scale{Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
			ccfg := experiments.CampaignConfig(spec, sc)
			combo.apply(&ccfg.Base)
			res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != g.violations {
				t.Errorf("%s %s: %d violations, want %d",
					g.defense, combo.name, len(res.Violations), g.violations)
			}
			if fp := violationFingerprint(res.Violations); fp != g.fingerprint {
				t.Errorf("%s %s: violation-set fingerprint %#x, want %#x",
					g.defense, combo.name, fp, g.fingerprint)
			}
		}
	}

	// The stack frontend gets its own golden sweep: same budget and seed,
	// wasm-generated programs. The sweep pins the frontend's generation,
	// mutation and lowering streams across worker counts and both prime
	// modes — the engine's schedule-independence contract is
	// frontend-independent, and so is the incremental prime's bit-identity.
	t.Run("wasm", func(t *testing.T) {
		wasmGolden := []struct {
			defense     string
			violations  int
			fingerprint uint64
		}{
			{"baseline", 1, 0xea4850e7d3d9d3ae},
			{"cleanupspec", 0, 0xcbf29ce484222325}, // empty set: FNV-1a offset basis
			{"invisispec", 1, 0x7053ea8c72d55960},
		}
		for _, g := range wasmGolden {
			for _, workers := range []int{1, 4} {
				for _, fullPrime := range []bool{false, true} {
					spec, err := experiments.DefenseByName(g.defense)
					if err != nil {
						t.Fatal(err)
					}
					sc := experiments.Scale{Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
					ccfg := experiments.CampaignConfig(spec, sc)
					ccfg.Base.Frontend = wasm.Frontend
					ccfg.Base.Exec.FullPrime = fullPrime
					res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Violations) != g.violations {
						t.Errorf("wasm %s workers=%d fullPrime=%v: %d violations, want %d",
							g.defense, workers, fullPrime, len(res.Violations), g.violations)
					}
					if fp := violationFingerprint(res.Violations); fp != g.fingerprint {
						t.Errorf("wasm %s workers=%d fullPrime=%v: violation-set fingerprint %#x, want %#x",
							g.defense, workers, fullPrime, fp, g.fingerprint)
					}
				}
			}
		}
	})

	for _, g := range golden {
		for _, workers := range []int{1, 4} {
			for _, fullPrime := range []bool{false, true} {
				spec, err := experiments.DefenseByName(g.defense)
				if err != nil {
					t.Fatal(err)
				}
				sc := experiments.Scale{Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
				ccfg := experiments.CampaignConfig(spec, sc)
				ccfg.Base.Exec.FullPrime = fullPrime
				res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != g.violations {
					t.Errorf("%s workers=%d fullPrime=%v: %d violations, want %d",
						g.defense, workers, fullPrime, len(res.Violations), g.violations)
				}
				if fp := violationFingerprint(res.Violations); fp != g.fingerprint {
					t.Errorf("%s workers=%d fullPrime=%v: violation-set fingerprint %#x, want %#x",
						g.defense, workers, fullPrime, fp, g.fingerprint)
				}
			}
		}
	}
}

// TestCrashResumeDeterminism extends the golden sweep across process
// death: each golden campaign is killed twice mid-flight (deterministically
// — the injector cancels the context after a fixed number of unit starts,
// standing in for SIGINT/power loss; the engine drains workers and writes
// its checkpoint exactly as the real signal path does), resumed each time
// from the checkpoint directory, and run to completion on the third leg.
// The final violation set must hit the same golden fingerprint as an
// uninterrupted run at the same seed — at both worker counts, even though
// *which* units die in flight differs per schedule. Interrupted + resumed
// and never-interrupted campaigns are indistinguishable, bit for bit.
func TestCrashResumeDeterminism(t *testing.T) {
	golden := []struct {
		defense     string
		violations  int
		fingerprint uint64
	}{
		{"baseline", 8, 0xab934f6f38c453de},
		{"cleanupspec", 4, 0x2f34157be71a08ad},
		{"invisispec", 7, 0x51c232367dd769ba},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			run := func(ctx context.Context, resume bool, inj *faultinject.Injector) (*fuzzer.CampaignResult, error) {
				spec, err := experiments.DefenseByName(g.defense)
				if err != nil {
					t.Fatal(err)
				}
				sc := experiments.Scale{Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
				return engine.RunCampaign(ctx, engine.Config{
					Campaign: experiments.CampaignConfig(spec, sc),
					Workers:  workers, CheckpointDir: dir, Resume: resume, Inject: inj,
				})
			}

			// Two kills: one on the fresh campaign, one on the first resume.
			for leg, resume := range []bool{false, true} {
				ctx, cancel := context.WithCancel(context.Background())
				inj := faultinject.New()
				inj.ArmCancel(25, cancel)
				_, err := run(ctx, resume, inj)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s workers=%d kill %d: err = %v, want context.Canceled",
						g.defense, workers, leg+1, err)
				}
			}

			// Final resume runs the campaign out.
			res, err := run(context.Background(), true, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: final resume failed: %v", g.defense, workers, err)
			}
			if len(res.Violations) != g.violations {
				t.Errorf("%s workers=%d: resumed campaign found %d violations, want %d",
					g.defense, workers, len(res.Violations), g.violations)
			}
			if fp := violationFingerprint(res.Violations); fp != g.fingerprint {
				t.Errorf("%s workers=%d: resumed fingerprint %#x, want golden %#x",
					g.defense, workers, fp, g.fingerprint)
			}
		}
	}
}
