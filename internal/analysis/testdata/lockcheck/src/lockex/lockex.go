// Package lockex exercises lockcheck: no potentially-blocking work while
// a sync.Mutex/RWMutex struct field is held.
package lockex

import (
	"context"
	"net"
	"sync"
	"time"
)

type S struct {
	mu     sync.Mutex
	ch     chan int
	cb     func() error
	conn   net.Conn
	cancel context.CancelFunc
}

func (s *S) sendLocked() {
	s.mu.Lock()
	s.ch <- 1 // want "lockcheck: channel send while holding a mutex"
	s.mu.Unlock()
}

func (s *S) recvLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "lockcheck: channel receive while holding a mutex"
}

// Dropping the lock first is the fix; no finding.
func (s *S) sendAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

func (s *S) rangeLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for v := range s.ch { // want "lockcheck: range over a channel while holding a mutex"
		total += v
	}
	return total
}

func (s *S) selectLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "lockcheck: select without a default while holding a mutex"
	case v := <-s.ch:
		return v
	}
}

// A select with a default never blocks; silent.
func (s *S) trySend() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
		return true
	default:
		return false
	}
}

func (s *S) callbackLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cb() // want "lockcheck: calling callback cb while holding a mutex"
}

// context.CancelFunc is non-blocking by contract; silent.
func (s *S) cancelLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancel()
}

func (s *S) connLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.Close() // want "lockcheck: net.Conn Close while holding a mutex"
}

// The deadlineConn idiom: snapshot the conn under the lock, do I/O after
// releasing it. Silent.
func (s *S) writeUnlocked(b []byte) (int, error) {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	return c.Write(b)
}

func (s *S) sleepLocked() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "lockcheck: time.Sleep while holding a mutex"
	s.mu.Unlock()
}

func (s *S) waitLocked(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait() // want "lockcheck: sync.WaitGroup.Wait while holding a mutex"
}

type R struct {
	rwmu sync.RWMutex
	ch   chan int
}

// RWMutex read locks guard the critical section the same way.
func (r *R) readLocked() int {
	r.rwmu.RLock()
	defer r.rwmu.RUnlock()
	return <-r.ch // want "lockcheck: channel receive while holding a mutex"
}

// A branch-local Unlock ends the critical section only in that branch.
func (s *S) branchLocal(early bool) {
	s.mu.Lock()
	if early {
		s.mu.Unlock()
		s.ch <- 1 // silent: this branch released the lock
		return
	}
	s.ch <- 2 // want "lockcheck: channel send while holding a mutex"
	s.mu.Unlock()
}

// Local mutex variables (not struct fields) are out of scope by design:
// the contract covers shared, long-lived locks. Silent.
func localMutex() {
	var mu sync.Mutex
	ch := make(chan int, 1)
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
