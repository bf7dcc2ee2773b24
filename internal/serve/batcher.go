package serve

// The dynamic batcher: per-(model, shape) queues that flush on size or on
// the MaxDelay latency budget, whichever comes first. This file is the
// serve package's only legitimate timer user (the budget IS wall-clock
// latency) and is file-scoped out of the determinism contract the same
// way cloudsim's transport is — the worker path next door stays
// contracted.

import (
	"sync"
	"time"
)

// queue coalesces calls that can share one forward pass.
type queue struct {
	srv  *Server
	name string
	path *path

	mu      sync.Mutex
	waiting []*call
	timer   *time.Timer
}

// getQueue returns reg's queue for key, creating it on first use.
func (s *Server) getQueue(reg *registration, key string, p *path) *queue {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	q := reg.queues[key]
	if q == nil {
		q = &queue{srv: s, name: reg.name, path: p}
		reg.queues[key] = q
	}
	return q
}

// enqueue adds an admitted call to its queue, flushing immediately at
// MaxBatch or arming the latency-budget timer on a batch's first call.
// The channel send happens outside the queue lock (lock discipline: no
// blocking operations while a mutex field is held).
func (s *Server) enqueue(reg *registration, key string, p *path, cl *call) {
	q := s.getQueue(reg, key, p)
	var flush []*call
	q.mu.Lock()
	q.waiting = append(q.waiting, cl)
	if len(q.waiting) >= s.cfg.MaxBatch {
		flush = q.waiting
		q.waiting = nil
		if q.timer != nil {
			q.timer.Stop()
			q.timer = nil
		}
	} else if len(q.waiting) == 1 {
		q.timer = time.AfterFunc(s.cfg.MaxDelay, q.budgetExpired)
	}
	q.mu.Unlock()
	if flush != nil {
		s.submit(reg.name, p, flush)
	}
}

// budgetExpired flushes whatever the latency budget caught. A size flush
// may have raced the timer; the detach under lock makes that benign —
// whoever detaches first owns the batch.
func (q *queue) budgetExpired() {
	q.mu.Lock()
	flush := q.waiting
	q.waiting = nil
	q.timer = nil
	q.mu.Unlock()
	if len(flush) > 0 {
		q.srv.submit(q.name, q.path, flush)
	}
}

// submit hands a detached batch to the worker pool, failing it fast if
// the server is closing instead.
func (s *Server) submit(name string, p *path, calls []*call) {
	select {
	case s.work <- batchJob{name: name, path: p, calls: calls}:
	case <-s.closed:
		for _, cl := range calls {
			cl.err = ErrClosed
			cl.finish(s)
		}
	}
}
