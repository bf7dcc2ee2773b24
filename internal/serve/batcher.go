package serve

// The work-conserving batcher: per-(model, shape) queues, and a ready
// list holding each queue that has waiting calls exactly once, oldest
// first. A free worker detaches up to MaxBatch calls from the head queue
// and sends the queue to the back if calls remain. Nothing waits for
// company: a lone call on an idle server runs at once, and calls that
// arrive while every worker is busy leave together as one batch. Which
// calls share a batch depends on arrival timing, never on a clock, and
// the numerics do not depend on it at all (see the package comment).

// queue holds the waiting calls that can share one forward pass. It is
// on the server's ready list exactly when waiting is non-empty; both are
// guarded by Server.mu.
type queue struct {
	name    string
	path    *path
	waiting []*call
}

// enqueue reserves QueueDepth for a whole admitted group and queues every
// call of it under one lock, so a group's calls that share a queue leave
// in as few batches as MaxBatch allows. It refuses the group with
// ErrClosed or ErrOverloaded instead.
func (s *Server) enqueue(reg *registration, p *path, keys []string, calls []call) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.pending.Add(int64(len(calls))) > int64(s.cfg.QueueDepth) {
		s.pending.Add(-int64(len(calls)))
		return ErrOverloaded
	}
	for i := range calls {
		q := reg.queues[keys[i]]
		if q == nil {
			q = &queue{name: reg.name, path: p}
			reg.queues[keys[i]] = q
		}
		if len(q.waiting) == 0 {
			s.ready = append(s.ready, q)
		}
		q.waiting = append(q.waiting, &calls[i])
	}
	s.cond.Signal()
	return nil
}

// next parks until a queue is ready and detaches the oldest ready
// queue's first MaxBatch calls; it returns no calls once the server is
// closed. Work left on the ready list wakes another worker, so no worker
// sleeps while a batch could run.
func (s *Server) next() (*queue, []*call) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ready) == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return nil, nil
	}
	q := s.ready[0]
	s.ready = s.ready[:copy(s.ready, s.ready[1:])]
	n := min(len(q.waiting), s.cfg.MaxBatch)
	batch := q.waiting[:n:n]
	if q.waiting = q.waiting[n:]; len(q.waiting) > 0 {
		s.ready = append(s.ready, q)
	} else {
		q.waiting = nil
	}
	if len(s.ready) > 0 {
		s.cond.Signal()
	}
	return q, batch
}

// Close stops the workers and fails every queued call with ErrClosed;
// batches already running finish first. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for _, q := range s.ready {
		for _, cl := range q.waiting {
			cl.err = ErrClosed
		}
		s.finish(q.waiting)
		q.waiting = nil
	}
	s.ready = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
