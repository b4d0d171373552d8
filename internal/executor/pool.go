package executor

import (
	"context"
	"fmt"
	"sync"

	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Pool hands out long-lived executors to campaign workers. Executors are
// created lazily up to the pool size, each with its own defense instance
// and the boot checkpoint enabled, so the boot workload is paid once per
// worker instead of once per test program.
type Pool struct {
	cfg     Config
	factory func() uarch.Defense

	free chan *Executor

	mu      sync.Mutex
	created []*Executor
	size    int
}

// NewPool builds a pool of up to size executors. A non-positive size or a
// nil factory is a configuration error — returned, not panicked, so a
// long-lived service embedding campaigns survives a bad request.
func NewPool(cfg Config, factory func() uarch.Defense, size int) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("executor: pool size must be >= 1, got %d", size)
	}
	if factory == nil {
		return nil, fmt.Errorf("executor: pool needs a defense factory")
	}
	return &Pool{
		cfg:     cfg,
		factory: factory,
		free:    make(chan *Executor, size),
		size:    size,
	}, nil
}

// Size returns the maximum number of executors the pool will create.
func (p *Pool) Size() int { return p.size }

// Acquire returns a free executor, creating one if the pool is not yet at
// capacity, or blocks until one is released or ctx is done.
func (p *Pool) Acquire(ctx context.Context) (*Executor, error) {
	select {
	case e := <-p.free:
		return e, nil
	default:
	}
	p.mu.Lock()
	if len(p.created) < p.size {
		e := New(p.cfg, p.factory())
		e.EnableBootCheckpoint()
		p.created = append(p.created, e)
		p.mu.Unlock()
		return e, nil
	}
	p.mu.Unlock()
	select {
	case e := <-p.free:
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns an executor to the pool. The executor keeps its boot
// checkpoint and metrics; the next LoadProgram gives the next borrower a
// fresh post-boot context. A Release without a matching Acquire (or of an
// executor already Discarded) cannot fit the free list; the executor is
// dropped on the floor instead of panicking — the pool re-creates capacity
// on demand, and a bookkeeping bug in a borrower must not kill a service
// process hosting many campaigns.
func (p *Pool) Release(e *Executor) {
	if e == nil {
		return
	}
	p.mu.Lock()
	known := false
	for _, x := range p.created {
		if x == e {
			known = true
			break
		}
	}
	p.mu.Unlock()
	if !known {
		return // discarded (or foreign): never re-enters circulation
	}
	select {
	case p.free <- e:
	default:
		// Unbalanced Release: drop the executor rather than crash.
	}
}

// Discard permanently removes a poisoned executor from the pool — one
// whose worker panicked mid-simulation or was abandoned by the unit
// watchdog, leaving the simulator state (or a still-running goroutine)
// unfit for reuse. The freed slot lets the next Acquire create a fresh
// executor. The discarded executor's metrics are intentionally not folded
// anywhere: a wedged unit's abandoned goroutine may still be mutating
// them.
func (p *Pool) Discard(e *Executor) {
	if e == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.created {
		if x == e {
			p.created = append(p.created[:i], p.created[i+1:]...)
			return
		}
	}
}

// Metrics sums the accumulated metrics of every executor the pool created
// and still owns (Discarded executors are excluded — see Discard). Call it
// only while no borrower is running (e.g. after a campaign).
func (p *Pool) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	var m Metrics
	for _, e := range p.created {
		m.Add(e.Metrics())
	}
	return m
}
