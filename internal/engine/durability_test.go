package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// fingerprints identifies a campaign outcome by its violation set digest
// (trace-free, so it works for restored violations too).
func fingerprint(res *fuzzer.CampaignResult) uint64 {
	return fuzzer.ViolationFingerprint(res.Violations)
}

// TestQuarantineKeepsCampaignGoing is the fault-isolation contract: a unit
// that panics mid-pipeline is quarantined — counted, bundled for replay —
// and every other unit of the campaign still runs to completion.
func TestQuarantineKeepsCampaignGoing(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New()
	inj.Arm(faultinject.KindPanicInUnit, 0, 3)

	cfg := engineConfig(1, 2, 12)
	cfg.Workers = 4
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatalf("quarantine escalated to a campaign error: %v", err)
	}
	tot := res.Totals()
	if tot.Metrics.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", tot.Metrics.Quarantined)
	}
	if tot.Programs != 23 {
		t.Errorf("completed programs = %d, want 23 (24 units minus the quarantined one)", tot.Programs)
	}

	// The quarantined unit's violations are gone; everything else must be
	// exactly what an uninjected campaign produces.
	clean, err := RunCampaign(context.Background(), engineConfig(1, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range campaignKeys(t, clean) {
		if !strings.HasPrefix(k, "i0 p3 ") {
			want = append(want, k)
		}
	}
	got := campaignKeys(t, res)
	if len(got) != len(want) {
		t.Fatalf("violation sets differ: quarantined run found %d, clean-minus-unit %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("violation %d differs:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}

	// The repro bundle landed in the quarantine subdirectory.
	b, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, 0, 3, checkpoint.BundlePanic))
	if err != nil {
		t.Fatalf("no repro bundle for the quarantined unit: %v", err)
	}
	if b.Inst != 0 || b.Prog != 3 || !strings.Contains(b.Value, "injected panic in unit (0,3)") {
		t.Errorf("bundle does not describe the fault: %+v", b)
	}
	if b.Stack == "" {
		t.Error("bundle carries no stack trace")
	}
}

// TestQuarantineBundleReplay closes the repro loop: the bundle written by a
// quarantined unit, re-run standalone with the original fault re-armed,
// reproduces the identical panic; without the fault, the same unit runs
// clean — the failure is exactly as deterministic as the unit seed.
func TestQuarantineBundleReplay(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New()
	inj.Arm(faultinject.KindPanicInUnit, 1, 5)
	cfg := engineConfig(3, 2, 8)
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, 1, 5, checkpoint.BundlePanic))
	if err != nil {
		t.Fatal(err)
	}

	// Replay with the fault re-armed: the panic must reproduce, surfaced as
	// the QuarantineError the engine degraded it to.
	reInj := faultinject.New()
	reInj.Arm(faultinject.KindPanicInUnit, b.Inst, b.Prog)
	res, err := ReplayUnit(context.Background(), engineConfig(3, 2, 8), b, reInj)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("replay err = %v, want a *QuarantineError", err)
	}
	if qe.Value != b.Value {
		t.Errorf("replayed panic %q, original %q", qe.Value, b.Value)
	}
	if res == nil || res.Metrics.Quarantined != 1 {
		t.Errorf("replay result does not count the quarantine: %+v", res)
	}

	// Replay without the fault: the unit itself is healthy and completes.
	res, err = ReplayUnit(context.Background(), engineConfig(3, 2, 8), b, nil)
	if err != nil {
		t.Fatalf("clean replay failed: %v", err)
	}
	if res.TestCases == 0 {
		t.Error("clean replay ran no test cases")
	}

	// A bundle from a different configuration is refused.
	other := engineConfig(99, 2, 8)
	if _, err := ReplayUnit(context.Background(), other, b, nil); err == nil ||
		!strings.Contains(err.Error(), "different campaign configuration") {
		t.Errorf("replay against a different config: err = %v, want fingerprint refusal", err)
	}
}

// TestResumeMidCampaign is the checkpoint/resume contract for the random
// strategy: kill a campaign partway (deterministically, via the injector's
// unit-start countdown), resume it, and the final violation set is
// bit-identical to an uninterrupted run's.
func TestResumeMidCampaign(t *testing.T) {
	base := func() Config { return engineConfig(1, 2, 12) }
	clean, err := RunCampaign(context.Background(), base())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New()
	inj.ArmCancel(6, cancel)
	cfg := base()
	cfg.Workers = 4
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	st, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	if len(st.Units) == 0 {
		t.Fatal("checkpoint recorded no completed units")
	}
	if len(st.Units) == 24 {
		t.Fatal("campaign finished before the injected kill; the resume path went unexercised")
	}

	cfg = base()
	cfg.Workers = 3 // resume at a different worker count, on purpose
	cfg.CheckpointDir = dir
	cfg.Resume = true
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), fingerprint(clean); got != want {
		t.Errorf("resumed fingerprint %#x, uninterrupted %#x", got, want)
	}
	if got, want := len(res.Violations), len(clean.Violations); got != want {
		t.Errorf("resumed violations = %d, uninterrupted %d", got, want)
	}
}

// TestResumeCorpusStrategy extends the resume contract across epoch state:
// coverage map, admitted corpus, and per-epoch program retention must all
// survive a mid-campaign kill, landing on the uninterrupted outcome.
func TestResumeCorpusStrategy(t *testing.T) {
	base := func() Config {
		cfg := engineConfig(1, 2, 12)
		cfg.Strategy = StrategyCorpus
		cfg.Epochs = 3
		return cfg
	}
	clean, err := RunCampaign(context.Background(), base())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New()
	inj.ArmCancel(10, cancel) // lands mid-epoch-2 at these sizes
	cfg := base()
	cfg.Workers = 4
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	cfg = base()
	cfg.CheckpointDir = dir
	cfg.Resume = true
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), fingerprint(clean); got != want {
		t.Errorf("resumed corpus fingerprint %#x, uninterrupted %#x", got, want)
	}
	cGot, cWant := res.Totals().Coverage, clean.Totals().Coverage
	if cGot == nil || cWant == nil || cGot.Count() != cWant.Count() {
		t.Errorf("resumed coverage differs from uninterrupted")
	}
}

// TestResumeCompletedCheckpoint: resuming a finished campaign re-runs
// nothing and reproduces the recorded outcome from the checkpoint alone.
func TestResumeCompletedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := engineConfig(1, 1, 8)
	cfg.CheckpointDir = dir
	clean, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res) != fingerprint(clean) || res.TestCases != clean.TestCases {
		t.Errorf("restored outcome differs: %d cases fp %#x, want %d cases fp %#x",
			res.TestCases, fingerprint(res), clean.TestCases, fingerprint(clean))
	}
}

// TestResumeRejectsMismatchAndCorruption: a checkpoint from a different
// configuration, or one whose bytes rotted, must refuse to resume — loudly,
// never by silently splicing foreign state into the campaign.
func TestResumeRejectsMismatchAndCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := engineConfig(1, 1, 6)
	cfg.CheckpointDir = dir
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	other := engineConfig(2, 1, 6) // different seed, same shape
	other.CheckpointDir = dir
	other.Resume = true
	if _, err := RunCampaign(context.Background(), other); err == nil ||
		!strings.Contains(err.Error(), "different campaign configuration") {
		t.Errorf("config-mismatch resume: err = %v, want fingerprint refusal", err)
	}

	// Flip one payload byte on disk: resume must surface ErrCorrupt.
	path := filepath.Join(dir, checkpoint.FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	if _, err := RunCampaign(context.Background(), cfg); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("corrupt resume: err = %v, want checkpoint.ErrCorrupt", err)
	}

	// Resume without a checkpoint directory is a configuration error.
	bad := engineConfig(1, 1, 6)
	bad.Resume = true
	if _, err := RunCampaign(context.Background(), bad); err == nil {
		t.Error("Resume without CheckpointDir was accepted")
	}

	// Resume with no checkpoint on disk is a fresh start, not an error.
	fresh := engineConfig(1, 1, 6)
	fresh.CheckpointDir = t.TempDir()
	fresh.Resume = true
	if _, err := RunCampaign(context.Background(), fresh); err != nil {
		t.Errorf("resume with no checkpoint yet: %v", err)
	}
}

// TestCampaignFingerprintIgnoresReferenceKnobs pins campaignFingerprint's
// contract: the reference knobs the determinism suite proves bit-identical
// change how fast a campaign runs, never what it produces, so a checkpoint
// written under one A/B setting resumes cleanly under the other — while a
// real campaign input still changes the identity.
func TestCampaignFingerprintIgnoresReferenceKnobs(t *testing.T) {
	fp := func(base fuzzer.Config) uint64 {
		return campaignFingerprint(base, "baseline", "toy", 2, 0, StrategyRandom)
	}
	base := engineConfig(1, 2, 6).Campaign.Base
	want := fp(base)
	for _, knob := range []struct {
		name string
		set  func(*fuzzer.Config)
	}{
		{"FullPrime", func(c *fuzzer.Config) { c.Exec.FullPrime = true }},
		{"FullDigest", func(c *fuzzer.Config) { c.Exec.FullDigest = true }},
		{"NoScoreboard", func(c *fuzzer.Config) { c.Exec.Core.NoScoreboard = true }},
		{"NoCycleSkip", func(c *fuzzer.Config) { c.Exec.Core.NoCycleSkip = true }},
		{"HeapFills", func(c *fuzzer.Config) { c.Exec.Core.Hier.HeapFills = true }},
		{"ReferenceModel", func(c *fuzzer.Config) { c.ReferenceModel = true }},
	} {
		c := base
		knob.set(&c)
		if got := fp(c); got != want {
			t.Errorf("%s changes the campaign fingerprint: %#x, want %#x", knob.name, got, want)
		}
	}
	for _, input := range []struct {
		name string
		set  func(*fuzzer.Config)
	}{
		{"seed", func(c *fuzzer.Config) { c.Seed++ }},
		{"L1D ways", func(c *fuzzer.Config) { c.Exec.Core.Hier.L1D.Ways++ }},
	} {
		c := base
		input.set(&c)
		if fp(c) == want {
			t.Errorf("changing the %s leaves the campaign fingerprint unchanged", input.name)
		}
	}
}

// TestUnitWatchdog: a wedged unit is abandoned at the deadline, counted as
// a timeout, bundled, and the rest of the campaign completes on a fresh
// executor.
func TestUnitWatchdog(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New()
	inj.HangDuration = 5 * time.Second // far past the watchdog deadline
	inj.Arm(faultinject.KindHangInUnit, 0, 2)

	cfg := engineConfig(1, 1, 6)
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	cfg.UnitTimeout = 100 * time.Millisecond
	start := time.Now()
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= inj.HangDuration {
		t.Errorf("campaign waited out the hang (%v); the watchdog never fired", elapsed)
	}
	tot := res.Totals()
	if tot.Metrics.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1", tot.Metrics.TimedOut)
	}
	if tot.Programs != 5 {
		t.Errorf("completed programs = %d, want 5 of 6", tot.Programs)
	}
	if _, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, 0, 2, checkpoint.BundleTimeout)); err != nil {
		t.Errorf("no timeout bundle: %v", err)
	}
}
