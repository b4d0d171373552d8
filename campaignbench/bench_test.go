package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// declared reads the metrics BENCHMARK.json declares, by name, with units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	return endToEnd, perLayer
}

// checkReport checks that the result line carries exactly the declared
// metrics, each with its declared unit.
func checkReport(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.correct, rep.attempted, rep.failed)
	}
	line, err := rep.json()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           *bool
		Attempted, Failed *int
		Metrics           map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Errorf("result line misses a key: %s", line)
	}
	for name, unit := range want {
		m, ok := got.Metrics[name]
		if !ok || m.Value == nil {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range got.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared", name)
		}
	}
}

// TestTinyBudget runs every workload at a one-round, tiny-campaign budget in
// both modes.
func TestTinyBudget(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		w.instances, w.programs = 1, 4
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			b := &bench{w: w, seed: 7, seconds: time.Nanosecond}
			rep, err := b.runTimed(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)

			b = &bench{w: w, seed: 7, seconds: time.Nanosecond}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err = b.runTraced(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			if _, err := os.Stat(path); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// TestFingerprintCheckTrips feeds the fingerprint check a mismatched pair,
// directly and through a replayed campaign whose engine result is replaced.
func TestFingerprintCheckTrips(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	v := func(prog int) *fuzzer.Violation {
		return &fuzzer.Violation{Defense: "x", ProgramIndex: prog, InputA: isa.NewInput(sb), InputB: isa.NewInput(sb)}
	}
	a, b := []*fuzzer.Violation{v(1)}, []*fuzzer.Violation{v(2)}
	if err := checkFingerprint(a, a); err != nil {
		t.Errorf("identical sets rejected: %v", err)
	}
	if err := checkFingerprint(a, b); err == nil {
		t.Error("mismatched sets accepted")
	}
	if err := checkFingerprint(a, nil); err == nil {
		t.Error("a lost violation went unnoticed")
	}

	w, err := workloadByName("paper-1page")
	if err != nil {
		t.Fatal(err)
	}
	w.instances, w.programs = 1, 2
	ccfg, err := w.campaignConfig("baseline", 3)
	if err != nil {
		t.Fatal(err)
	}
	bn := &bench{w: w}
	bad := &fuzzer.CampaignResult{Violations: []*fuzzer.Violation{v(0)}}
	if _, err := bn.replayCheck(context.Background(), []campaignRun{{ccfg: ccfg, res: bad}}, nil); err != nil {
		t.Fatal(err)
	}
	if bn.failed != w.units() {
		t.Errorf("mismatch failed %d units, want %d", bn.failed, w.units())
	}
}
