package fuzzer

import (
	"time"

	"github.com/sith-lab/amulet-go/internal/uarch"
)

// CampaignConfig is the shape of a campaign: several fuzzing instances
// with distinct seeds, the way the paper runs 16 or 100 parallel AMuLeT
// instances. internal/engine runs it.
type CampaignConfig struct {
	Base      Config
	Instances int
}

// seedGamma is the 64-bit golden-ratio constant ⌊2^64/φ⌋ (splitmix64's
// increment): successive multiples are maximally spread over the 64-bit
// space, so derived seeds never cluster.
const seedGamma = 0x9E3779B97F4A7C15

// InstanceSeed derives the i-th instance seed from the campaign seed.
func InstanceSeed(campaign int64, i int) int64 {
	return int64(uint64(campaign) + uint64(i)*seedGamma)
}

// UnitSeed derives the RNG seed of the program-level work unit (instSeed,
// p) with the splitmix64 finalizer (uarch.Mix64). Every program of every
// instance gets an independent, well-spread stream, which is what lets the
// engine schedule units in any order deterministically. The instance seed
// is finalized before the program offset is added: InstanceSeed values are
// exact multiples of seedGamma apart, so offsetting them by p*seedGamma
// directly would alias unit (i, p) with unit (i+1, p-1) and make instances
// replicas of each other.
func UnitSeed(instSeed int64, p int) int64 {
	x := uarch.Mix64(uint64(instSeed)) + uint64(p+1)*seedGamma
	return int64(uarch.Mix64(x))
}

// CampaignResult aggregates instance results.
type CampaignResult struct {
	// Instances is indexed by instance number. Entries are nil only when
	// the campaign returned an error and that instance produced nothing.
	Instances  []*Result
	Violations []*Violation
	TestCases  int
	Elapsed    time.Duration // wall-clock for the whole campaign
}

// Throughput returns aggregate test cases per second (wall clock).
func (c *CampaignResult) Throughput() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return float64(c.TestCases) / c.Elapsed.Seconds()
}

// DetectedViolation reports whether any instance found a violation.
func (c *CampaignResult) DetectedViolation() bool { return len(c.Violations) > 0 }

// AvgDetectionTime averages time-to-first-violation over the instances
// that found one; ok is false if none did.
func (c *CampaignResult) AvgDetectionTime() (time.Duration, bool) {
	var sum time.Duration
	n := 0
	for _, r := range c.Instances {
		if r == nil {
			continue
		}
		if d, ok := r.FirstDetection(); ok {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / time.Duration(n), true
}

// Totals merges every instance result into one Result — the campaign-wide
// counters, stage timings and executor metrics (cmd/amulet's summary and
// the experiments read these).
func (c *CampaignResult) Totals() *Result {
	t := &Result{}
	for _, r := range c.Instances {
		if r != nil {
			t.Merge(r)
		}
	}
	return t
}

// Aggregate recomputes the campaign totals from the instance results.
func (c *CampaignResult) Aggregate() {
	c.TestCases = 0
	c.Violations = nil
	for _, r := range c.Instances {
		if r == nil {
			continue
		}
		c.TestCases += r.TestCases
		c.Violations = append(c.Violations, r.Violations...)
	}
}
