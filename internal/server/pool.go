package server

import (
	"errors"
	"sync"
)

// ErrBusy is returned by Pool.Submit when the backpressure queue is full;
// the HTTP layer maps it to 429 Too Many Requests.
var ErrBusy = errors.New("server: all workers busy and queue full")

// ErrClosed is returned by Pool.Submit after Close.
var ErrClosed = errors.New("server: pool closed")

// Pool is a bounded worker pool with a bounded submission queue. Workers
// bound simulation concurrency (a simulation is CPU-bound, so more workers
// than cores only adds contention); the queue absorbs short bursts, and
// anything beyond it is rejected immediately so callers can shed load
// instead of stacking up unbounded goroutines.
type Pool struct {
	jobs chan func()

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// stats, when non-nil, receives the queue-length and active-job
	// gauges for /v1/metrics.
	stats *Metrics
}

// NewPool starts workers goroutines servicing a queue of depth queueDepth.
func NewPool(workers, queueDepth int, stats *Metrics) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &Pool{jobs: make(chan func(), queueDepth), stats: stats}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				if p.stats != nil {
					p.stats.queueLen.Add(-1)
					p.stats.activeJobs.Add(1)
				}
				job()
				if p.stats != nil {
					p.stats.activeJobs.Add(-1)
				}
			}
		}()
	}
	return p
}

// Submit enqueues job without blocking. It returns ErrBusy when the queue
// is full and ErrClosed after Close. The job runs exactly once on a worker.
func (p *Pool) Submit(job func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	// The gauge goes up before the send: an idle worker can receive the job
	// the instant it lands in the channel, and its decrement must never be
	// able to race the increment below zero.
	if p.stats != nil {
		p.stats.queueLen.Add(1)
	}
	select {
	case p.jobs <- job:
		return nil
	default:
		if p.stats != nil {
			p.stats.queueLen.Add(-1)
		}
		return ErrBusy
	}
}

// Close stops accepting new jobs and waits for queued and in-flight jobs to
// finish — the drain step of graceful shutdown.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
