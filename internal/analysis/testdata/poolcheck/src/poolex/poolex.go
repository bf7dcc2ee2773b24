// Package poolex exercises poolcheck: pooled tensors must reach
// tensor.Put or an ownership hand-off on every return path.
package poolex

import (
	"errors"

	"amalgam/internal/tensor"
)

// A buffer used purely locally with no Put anywhere is a definite leak.
func leak() float32 {
	x := tensor.Get(4, 4) // want "poolcheck: pooled tensor x is never released"
	x.Fill(1)
	return x.Sum()
}

// GetZero acquisitions are tracked the same way.
func leakZero() float32 {
	z := tensor.GetZero(3) // want "poolcheck: pooled tensor z is never released"
	return z.Data[0]
}

// The canonical balanced pattern is silent.
func balanced() float32 {
	x := tensor.Get(4, 4)
	x.Fill(1)
	s := x.Sum()
	tensor.Put(x)
	return s
}

// An early error return between Get and Put leaks on that path.
func earlyReturn(fail bool) error {
	x := tensor.Get(4, 4)
	if fail {
		return errors.New("boom") // want "poolcheck: return leaks pooled tensor x"
	}
	tensor.Put(x)
	return nil
}

// A deferred Put covers every exit, including the early one and panics.
func deferred(fail bool) error {
	x := tensor.Get(4, 4)
	defer tensor.Put(x)
	if fail {
		return errors.New("boom")
	}
	x.Fill(2)
	return nil
}

// A Put inside a deferred closure also covers every exit.
func deferredClosure(fail bool) error {
	x := tensor.Get(4, 4)
	defer func() {
		tensor.Put(x)
	}()
	if fail {
		return errors.New("boom")
	}
	return nil
}

// Returning the buffer transfers ownership to the caller.
func transfer() *tensor.Tensor {
	x := tensor.GetZero(2, 2)
	return x
}

// Passing the buffer to another function hands ownership off (the callee
// is assumed to release or keep it — autodiff graph sinks, etc.).
func handoff() {
	x := tensor.Get(2)
	sink(x)
}

func sink(*tensor.Tensor) {}

// Storing the buffer into a longer-lived structure also ends tracking.
type holder struct{ t *tensor.Tensor }

func stored(h *holder) {
	x := tensor.Get(8)
	h.t = x
}

// Rebinding the variable to a second acquisition keeps both paired.
func rebind() {
	x := tensor.Get(2)
	tensor.Put(x)
	x = tensor.Get(3)
	tensor.Put(x)
}
