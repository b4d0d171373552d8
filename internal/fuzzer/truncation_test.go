package fuzzer

import (
	"context"
	"testing"
	"time"
)

// TestTruncationsReachMetrics pins the plumbing of the leakage-model
// step-budget counter: truncations recorded on a ProgramCase must land in
// the executor metrics, from which the engine attributes them to the unit
// by diffing metric snapshots around ExecuteCase. The model-level detection
// itself is pinned by contract.TestModelTruncationCounted.
func TestTruncationsReachMetrics(t *testing.T) {
	cfg, exec, pc := steadyStateCase(t)
	pc.Truncations = 3
	res := &Result{}
	if _, err := ExecuteCase(context.Background(), exec, cfg, pc, res, time.Now()); err != nil {
		t.Fatal(err)
	}
	if got := exec.Metrics().Truncations; got != 3 {
		t.Fatalf("executor metrics Truncations = %d, want 3", got)
	}
}
