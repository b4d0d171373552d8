package experiments

import (
	"context"
	"time"

	"github.com/sith-lab/amulet-go/internal/executor"
)

// Table2 reproduces the paper's Table 2: the per-test-program time
// breakdown of the Naive (restart per input) and Opt (restart per program)
// µarch-trace extraction strategies on the baseline CPU. The paper's shape:
// startup dominates Naive (~96%), simulation dominates Opt (~89%), and Opt
// is an order of magnitude faster per program.
func Table2(ctx context.Context, scale Scale) (*Table, error) {
	type breakdown struct {
		startup, prime, simulate, trace, digest, gen, model, total time.Duration
		perProgram                                                 time.Duration
	}
	run := func(strategy executor.Strategy) (*breakdown, error) {
		spec, err := DefenseByName("baseline")
		if err != nil {
			return nil, err
		}
		ccfg := CampaignConfig(spec, scale)
		ccfg.Instances = 1
		ccfg.Base.Exec.Strategy = strategy
		// The paper measures 30 programs x 140 inputs; scale the program
		// count down for Naive-speed reasons while keeping inputs/program.
		ccfg.Base.Programs = max(scale.Programs/10, 2)
		// One worker: the paper's serial layout, so the wall time is the
		// sum of the per-component times plus scheduling overhead.
		res, err := RunCampaign(ctx, ccfg, 1)
		if err != nil {
			return nil, err
		}
		tot := res.Totals()
		m := tot.Metrics
		b := &breakdown{
			startup:  m.Startup,
			prime:    m.Prime,
			simulate: m.Simulate,
			trace:    m.TraceExtract,
			digest:   m.Digest,
			gen:      tot.GenTime,
			model:    tot.ModelTime,
		}
		b.total = res.Elapsed
		b.perProgram = res.Elapsed / time.Duration(ccfg.Base.Programs)
		return b, nil
	}

	naive, err := run(executor.StrategyNaive)
	if err != nil {
		return nil, err
	}
	opt, err := run(executor.StrategyOpt)
	if err != nil {
		return nil, err
	}

	row := func(name string, nv, ov time.Duration) []string {
		return []string{name,
			fmtDuration(nv) + " (" + fmtPct(nv, naive.total) + ")",
			fmtDuration(ov) + " (" + fmtPct(ov, opt.total) + ")",
		}
	}
	other := func(b *breakdown) time.Duration {
		o := b.total - b.startup - b.prime - b.simulate - b.trace - b.digest - b.gen - b.model
		if o < 0 {
			o = 0
		}
		return o
	}
	t := &Table{
		Title:  "Table 2: time per component, Naive vs Opt µarch trace extraction",
		Header: []string{"Component", "Naive", "Opt"},
		Rows: [][]string{
			row("simulator startup", naive.startup, opt.startup),
			row("cache priming", naive.prime, opt.prime),
			row("simulator simulate", naive.simulate, opt.simulate),
			row("µTrace extraction", naive.trace, opt.trace),
			row("µTrace digesting", naive.digest, opt.digest),
			row("test generation", naive.gen, opt.gen),
			row("CTrace extraction", naive.model, opt.model),
			row("others", other(naive), other(opt)),
			{"total", fmtDuration(naive.total), fmtDuration(opt.total)},
			{"per test program", fmtDuration(naive.perProgram), fmtDuration(opt.perProgram)},
		},
		Notes: []string{
			"paper shape: startup dominates Naive; simulate dominates Opt",
		},
	}
	return t, nil
}
