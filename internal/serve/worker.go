package serve

// The inference workers: each takes the next batch off the ready list,
// assembles the batch input in one pooled tensor, runs a single eval-mode
// forward pass, copies every request's result out, and releases the
// graph root — so a steady-state prediction touches only pooled storage
// plus the per-result copies. Batch execution is a pure function of the
// coalesced inputs.

import (
	"fmt"
	"math"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		q, calls := s.next()
		if calls == nil {
			return
		}
		s.runBatch(q, calls)
	}
}

// runBatch executes one coalesced batch and completes every call in it —
// with results, or with ErrModelPanic if the forward pass blew up (a
// poisoned request fails its whole batch; admission-time validation keeps
// that to genuine model bugs).
func (s *Server) runBatch(q *queue, calls []*call) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: model %q: %v", ErrModelPanic, q.name, r)
			for _, cl := range calls {
				cl.err = err
			}
		}
		s.finish(calls)
	}()
	q.path.run(calls)
}

// finish releases completed calls' QueueDepth reservations and wakes
// their groups.
func (s *Server) finish(calls []*call) {
	s.pending.Add(-int64(len(calls)))
	for _, cl := range calls {
		cl.done.Done()
	}
}

// run is THE batch driver, for every path: pack the coalesced calls into
// one input, forward once, fan the output back out, release the graph.
func (p *path) run(calls []*call) {
	var out *autodiff.Node
	if p.forwardIDs != nil {
		out = p.forwardIDs(packIDs(calls))
	} else {
		shape := append(make([]int, 0, 2+len(p.dims)), len(calls))
		if p.seq {
			shape = append(shape, calls[0].seqLen) // uniform: the queue key guarantees it
		}
		x := tensor.Get(append(shape, p.dims...)...)
		defer tensor.Put(x)
		packRows(x, calls)
		out = p.forward(autodiff.Constant(x))
	}
	p.fan(out, calls)
	autodiff.Release(out)
}

// packIDs lists the coalesced token sequences; the models index them in
// place.
func packIDs(calls []*call) [][]int {
	ids := make([][]int, len(calls))
	for i, cl := range calls {
		ids[i] = cl.ids
	}
	return ids
}

// packRows copies the coalesced dense rows (images, pooled or embedded
// activations; admission made them equally long) into the batch input.
func packRows(x *tensor.Tensor, calls []*call) {
	per := len(x.Data) / len(calls)
	for i, cl := range calls {
		copy(x.Data[i*per:(i+1)*per], cl.row)
	}
}

// fanOutClasses reads [N, classes] logits and writes each call's argmax
// class and logit-row copy.
func fanOutClasses(out *autodiff.Node, calls []*call) {
	pred := tensor.ArgmaxRows(out.Val)
	classes := out.Val.Dim(1)
	for i, cl := range calls {
		cl.class = CVResult{Class: pred[i], Logits: copyRow(out.Val.Data, i, classes)}
	}
}

// fanOutNextToken reads [N*rows, vocab] logits and writes each call's
// top-K next-token result from its final row. The rows per sample come
// from the logits themselves, so augmented models — whose secret gather
// shrinks the visible window — need no extra geometry.
func fanOutNextToken(out *autodiff.Node, calls []*call) {
	vocab := out.Val.Dim(1)
	rows := out.Val.Dim(0) / len(calls)
	for i, cl := range calls {
		last := out.Val.Data[((i+1)*rows-1)*vocab : (i+1)*rows*vocab]
		toks, lps := topKLogProbs(last, cl.topK)
		cl.next = LMResult{Tokens: toks, LogProbs: lps}
	}
}

// topKLogProbs returns the k most probable token ids — most probable
// first, ties toward the lower id, k <= 0 meaning 1 and k past the
// vocabulary meaning all of it — with their log-softmax values,
// accumulated in float64 for a stable log-sum-exp. k arrives off the
// wire unbounded, so selection is a size-k heap: O(V log k) whatever k
// is, and for k = 1 one linear pass.
func topKLogProbs(logits []float32, k int) ([]int, []float32) {
	if k <= 0 {
		k = 1
	}
	if k > len(logits) {
		k = len(logits)
	}
	maxv := logits[0]
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	lse := float64(maxv) + math.Log(sum)

	// worse ranks token a below token b.
	worse := func(a, b int) bool {
		return logits[a] < logits[b] || (logits[a] == logits[b] && a > b)
	}
	// sift restores heap order (worst kept token at the root) below i.
	sift := func(h []int, i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && worse(h[c+1], h[c]) {
				c++
			}
			if !worse(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	toks := make([]int, k)
	for i := range toks {
		toks[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		sift(toks, i)
	}
	for i := k; i < len(logits); i++ {
		if worse(toks[0], i) {
			toks[0] = i
			sift(toks, 0)
		}
	}
	// Heap-sort in place: each pass moves the worst survivor to the back.
	for n := k - 1; n > 0; n-- {
		toks[0], toks[n] = toks[n], toks[0]
		sift(toks[:n], 0)
	}
	lps := make([]float32, k)
	for i, t := range toks {
		lps[i] = float32(float64(logits[t]) - lse)
	}
	return toks, lps
}

// copyRow copies row i of a [*, width] data slab into a fresh slice, so
// results survive the graph release.
func copyRow(data []float32, i, width int) []float32 {
	out := make([]float32, width)
	copy(out, data[i*width:(i+1)*width])
	return out
}
