package tensor

import "fmt"

// The three matmul entry points share one kernel family: a register-tiled
// saxpy kernel that processes two output rows per pass with the inner
// k-loop unrolled 4× (axpy4x2 / axpy4), and a four-column dot kernel
// (dot4) for the Bᵀ case. On amd64 with AVX2+FMA the kernels dispatch to
// hand-written SIMD (see simd_amd64.s); everywhere else the pure-Go
// versions below run, written so the compiler eliminates every
// bounds check in the hot loops.
//
// Determinism contract: for a given binary on a given machine, the
// accumulation order of every output element is fixed by (i, j, k) alone —
// parallelFor only partitions disjoint output rows, and the single-row
// remainder kernels use the exact same per-element operation chains as the
// paired kernels — so results are bit-identical for any SetMaxWorkers
// value.

// matmulShapes panics unless a and b are 2-D and agree on the contracted
// dimension (dimension aShared of a against bShared of b). It is the shared
// validation helper for MatMul, MatMulBT, and MatMulAT.
func matmulShapes(op string, a, b *Tensor, aShared, bShared int) {
	if a.Dims() != 2 || b.Dims() != 2 || a.shape[aShared] != b.shape[bShared] {
		panic(fmt.Sprintf("tensor: %s shapes %v × %v invalid (%v)", op, a.shape, b.shape, ErrShape))
	}
}

func checkOutShape(op string, out *Tensor, m, n int) {
	if out.Dims() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s out shape %v, want [%d %d]", op, out.shape, m, n))
	}
}

// matmulRowsPerWorker picks a minimum per-goroutine row count so tiny
// multiplies stay single-threaded.
func matmulRowsPerWorker(k, n int) int {
	work := k * n
	if work <= 0 {
		return 1
	}
	const targetFlopsPerWorker = 1 << 15
	rows := targetFlopsPerWorker / work
	if rows < 1 {
		rows = 1
	}
	return rows
}

// slabFloats (1 MB) is how much of a wide operand the row-range loops keep
// between two passes over it: when b is larger, they walk it in column
// blocks whose [k, nb] slab fits, so every row pair of a range reads the slab
// from cache and b crosses the memory bus once, not once per pair.
const slabFloats = 1 << 18

// minColBlock is the narrowest window worth cutting: narrower, the kernel
// entries cost more than the residency saves (a 448-wide window made
// resnet18's 64×576×1024 stage-1 panel 20 % slower).
const minColBlock = 1024

// colBlock is the column window of matmulRowRange and matmulATRowRange for
// b [k, n], a function of shape alone: n (one block, the loop as it always
// was) when b fits the slab or the widest window that fits is under
// minColBlock — every convolution panel with k ≥ 257 and the language
// model's GEMMs; else the widest multiple of 16 whose slab fits.
func colBlock(k, n int) int {
	if k*n <= slabFloats || slabFloats/k < minColBlock {
		return n
	}
	return slabFloats / k &^ 15
}

// rowBlockBT is how many rows of b [n, k] matmulBTRowRange sweeps per pass
// over its rows of a: all n while b fits the slab, else as many groups of
// four as do (at least one), so a b too wide for cache is read once in all.
func rowBlockBT(k, n int) int {
	if k*n <= slabFloats {
		return n
	}
	return max(4, slabFloats/k&^3)
}

// MatMul returns a × b for a of shape [m, k] and b of shape [k, n].
func MatMul(a, b *Tensor) *Tensor {
	matmulShapes("MatMul", a, b, 1, 0)
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's storage. out must be
// [m, n]; it is fully overwritten.
func MatMulInto(out, a, b *Tensor) {
	matmulShapes("MatMulInto", a, b, 1, 0)
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	checkOutShape("MatMulInto", out, m, n)
	if n == 0 || m == 0 {
		return
	}
	MatMulRawInto(out.Data, a.Data, b.Data, m, k, n)
}

// MatMulRawInto computes dst = a × b over raw row-major buffers: a is
// [m, k], b is [k, n], dst is [m, n] and fully overwritten. This is the
// allocation-free entry point for hot loops (im2col convolution, batched
// attention matmuls) that would otherwise build a view header per call.
func MatMulRawInto(dst, a, b []float32, m, k, n int) { matmulRaw(dst, a, b, m, k, n, false) }

// MatMulAccRawInto computes dst += a × b over the same buffers: each
// element's ascending chain of k products starts from what dst holds
// instead of from zero, so a weight gradient summed over blocks of a batch
// forms in place, with no product-sized temporary and no add pass.
func MatMulAccRawInto(dst, a, b []float32, m, k, n int) { matmulRaw(dst, a, b, m, k, n, true) }

func matmulRaw(dst, a, b []float32, m, k, n int, acc bool) {
	checkRawSizes("MatMulRawInto", len(dst), len(a), len(b), m*n, m*k, k*n)
	if m == 0 || n == 0 {
		return
	}
	rpw, nb := matmulRowsPerWorker(k, n), colBlock(k, n)
	if chunksFor(m, rpw) <= 1 {
		// Serial fast path: calling the range function directly skips the
		// escaping closure (one heap allocation) of a parallelFor call.
		matmulRowRange(dst, a, b, k, n, nb, 0, m, acc)
		return
	}
	parallelFor(m, rpw, func(r0, r1 int) {
		matmulRowRange(dst, a, b, k, n, nb, r0, r1, acc)
	})
}

func checkRawSizes(op string, ld, la, lb, wd, wa, wb int) {
	if ld < wd || la < wa || lb < wb {
		panic(fmt.Sprintf("tensor: %s buffer sizes %d/%d/%d, need %d/%d/%d", op, ld, la, lb, wd, wa, wb))
	}
}

// matmulRowRange computes output rows [r0, r1) of od = ad × bd, or of
// od += ad × bd when acc is set (the rows are then not zeroed first), nb
// columns at a time (colBlock): every row pair of the range passes over one
// [k, nb] slab of bd before the next slab is touched. Rows are processed in
// pairs; per-element accumulation order is ascending p regardless of
// pairing and of the column window, so neither chunk nor block boundaries
// can change results.
func matmulRowRange(od, ad, bd []float32, k, n, nb, r0, r1 int, acc bool) {
	for j0 := 0; j0 < n; j0 += nb {
		w := min(nb, n-j0)
		bw := bd[j0:]
		i := r0
		for ; i+2 <= r1; i += 2 {
			d0 := od[i*n+j0 : i*n+j0+w]
			d1 := od[(i+1)*n+j0 : (i+1)*n+j0+w]
			if !acc {
				zeroFloats(d0)
				zeroFloats(d1)
			}
			arow0 := ad[i*k : (i+1)*k]
			arow1 := ad[(i+1)*k : (i+2)*k]
			p := 0
			if simdAvailable {
				var av [8]float32
				for ; p+4 <= k; p += 4 {
					av[0], av[1], av[2], av[3] = arow0[p], arow0[p+1], arow0[p+2], arow0[p+3]
					av[4], av[5], av[6], av[7] = arow1[p], arow1[p+1], arow1[p+2], arow1[p+3]
					axpy4x2SIMD(d0, d1,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w], &av)
				}
			} else {
				for ; p+4 <= k; p += 4 {
					axpy4x2Generic(d0, d1,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w],
						arow0[p], arow0[p+1], arow0[p+2], arow0[p+3],
						arow1[p], arow1[p+1], arow1[p+2], arow1[p+3])
				}
			}
			for ; p < k; p++ {
				axpy1(d0, bw[p*n:p*n+w], arow0[p])
				axpy1(d1, bw[p*n:p*n+w], arow1[p])
			}
		}
		for ; i < r1; i++ {
			d0 := od[i*n+j0 : i*n+j0+w]
			if !acc {
				zeroFloats(d0)
			}
			arow := ad[i*k : (i+1)*k]
			p := 0
			if simdAvailable {
				var av [4]float32
				for ; p+4 <= k; p += 4 {
					av[0], av[1], av[2], av[3] = arow[p], arow[p+1], arow[p+2], arow[p+3]
					axpy4SIMD(d0,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w], &av)
				}
			} else {
				for ; p+4 <= k; p += 4 {
					axpy4Generic(d0,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w],
						arow[p], arow[p+1], arow[p+2], arow[p+3])
				}
			}
			for ; p < k; p++ {
				axpy1(d0, bw[p*n:p*n+w], arow[p])
			}
		}
	}
}

// MatMulBT returns a × bᵀ for a [m, k] and b [n, k]. This avoids
// materialising the transpose in backward passes.
func MatMulBT(a, b *Tensor) *Tensor {
	matmulShapes("MatMulBT", a, b, 1, 1)
	out := New(a.shape[0], b.shape[0])
	MatMulBTInto(out, a, b)
	return out
}

// MatMulBTInto computes out = a × bᵀ, reusing out's storage.
func MatMulBTInto(out, a, b *Tensor) {
	matmulShapes("MatMulBTInto", a, b, 1, 1)
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	checkOutShape("MatMulBTInto", out, m, n)
	if m == 0 || n == 0 {
		return
	}
	MatMulBTRawInto(out.Data, a.Data, b.Data, m, k, n)
}

// MatMulBTRawInto computes dst = a × bᵀ over raw row-major buffers: a is
// [m, k], b is [n, k], dst is [m, n] and fully overwritten.
func MatMulBTRawInto(dst, a, b []float32, m, k, n int) {
	checkRawSizes("MatMulBTRawInto", len(dst), len(a), len(b), m*n, m*k, n*k)
	if m == 0 || n == 0 {
		return
	}
	rpw, nb := matmulRowsPerWorker(k, n), rowBlockBT(k, n)
	if chunksFor(m, rpw) <= 1 {
		matmulBTRowRange(dst, a, b, k, n, nb, 0, m)
		return
	}
	parallelFor(m, rpw, func(r0, r1 int) {
		matmulBTRowRange(dst, a, b, k, n, nb, r0, r1)
	})
}

// matmulBTRowRange computes output rows [r0, r1) of dst = a × bᵀ, nb rows
// of b (rowBlockBT, a multiple of four) at a time: with nb = n a row of a
// stays put while all of b streams past it; with nb = 4 the four-row group
// of b is outermost and the range's rows of a stream past that. Either way a
// column is one whole dot product — dot4 for the same groups of four, dot1
// for the same n%4 remainder — so the order cannot change results.
func matmulBTRowRange(dst, a, b []float32, k, n, nb, r0, r1 int) {
	for j0 := 0; j0 < n; j0 += nb {
		j1 := min(j0+nb, n)
		for i := r0; i < r1; i++ {
			arow := a[i*k : (i+1)*k]
			orow := dst[i*n : i*n+n]
			j := j0
			if simdAvailable {
				var o4 [4]float32
				for ; j+4 <= j1; j += 4 {
					dot4SIMD(arow,
						b[j*k:j*k+k], b[(j+1)*k:(j+1)*k+k],
						b[(j+2)*k:(j+2)*k+k], b[(j+3)*k:(j+3)*k+k], &o4)
					orow[j], orow[j+1], orow[j+2], orow[j+3] = o4[0], o4[1], o4[2], o4[3]
				}
			}
			for ; j < j1; j++ {
				orow[j] = dot1(arow, b[j*k:j*k+k])
			}
		}
	}
}

// MatMulAT returns aᵀ × b for a [k, m] and b [k, n]; used for weight
// gradients (dW = xᵀ·dy).
func MatMulAT(a, b *Tensor) *Tensor {
	matmulShapes("MatMulAT", a, b, 0, 0)
	out := New(a.shape[1], b.shape[1])
	MatMulATInto(out, a, b)
	return out
}

// MatMulATInto computes out = aᵀ × b, reusing out's storage.
func MatMulATInto(out, a, b *Tensor) {
	matmulShapes("MatMulATInto", a, b, 0, 0)
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	checkOutShape("MatMulATInto", out, m, n)
	if m == 0 || n == 0 {
		return
	}
	MatMulATRawInto(out.Data, a.Data, b.Data, m, k, n)
}

// MatMulATRawInto computes dst = aᵀ × b over raw row-major buffers: a is
// [k, m], b is [k, n], dst is [m, n] and fully overwritten.
func MatMulATRawInto(dst, a, b []float32, m, k, n int) { matmulATRaw(dst, a, b, m, k, n, false) }

// MatMulATAccRawInto computes dst += aᵀ × b, as MatMulAccRawInto does for
// a × b: a dense layer's dW = Xᵀ·dY lands in the parameter's own gradient.
func MatMulATAccRawInto(dst, a, b []float32, m, k, n int) { matmulATRaw(dst, a, b, m, k, n, true) }

func matmulATRaw(dst, a, b []float32, m, k, n int, acc bool) {
	checkRawSizes("MatMulATRawInto", len(dst), len(a), len(b), m*n, k*m, k*n)
	if m == 0 || n == 0 {
		return
	}
	rpw, nb := matmulRowsPerWorker(k, n), colBlock(k, n)
	if chunksFor(m, rpw) <= 1 {
		matmulATRowRange(dst, a, b, m, k, n, nb, 0, m, acc)
		return
	}
	parallelFor(m, rpw, func(r0, r1 int) {
		matmulATRowRange(dst, a, b, m, k, n, nb, r0, r1, acc)
	})
}

// matmulATRowRange is matmulRowRange with a read down its columns: output
// row i takes its k multipliers from ad[p*m+i].
func matmulATRowRange(od, ad, bd []float32, m, k, n, nb, r0, r1 int, acc bool) {
	for j0 := 0; j0 < n; j0 += nb {
		w := min(nb, n-j0)
		bw := bd[j0:]
		i := r0
		for ; i+2 <= r1; i += 2 {
			d0 := od[i*n+j0 : i*n+j0+w]
			d1 := od[(i+1)*n+j0 : (i+1)*n+j0+w]
			if !acc {
				zeroFloats(d0)
				zeroFloats(d1)
			}
			p := 0
			if simdAvailable {
				var av [8]float32
				for ; p+4 <= k; p += 4 {
					av[0], av[1], av[2], av[3] = ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i]
					av[4], av[5], av[6], av[7] = ad[p*m+i+1], ad[(p+1)*m+i+1], ad[(p+2)*m+i+1], ad[(p+3)*m+i+1]
					axpy4x2SIMD(d0, d1,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w], &av)
				}
			} else {
				for ; p+4 <= k; p += 4 {
					axpy4x2Generic(d0, d1,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w],
						ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i],
						ad[p*m+i+1], ad[(p+1)*m+i+1], ad[(p+2)*m+i+1], ad[(p+3)*m+i+1])
				}
			}
			for ; p < k; p++ {
				axpy1(d0, bw[p*n:p*n+w], ad[p*m+i])
				axpy1(d1, bw[p*n:p*n+w], ad[p*m+i+1])
			}
		}
		for ; i < r1; i++ {
			d0 := od[i*n+j0 : i*n+j0+w]
			if !acc {
				zeroFloats(d0)
			}
			p := 0
			if simdAvailable {
				var av [4]float32
				for ; p+4 <= k; p += 4 {
					av[0], av[1], av[2], av[3] = ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i]
					axpy4SIMD(d0,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w], &av)
				}
			} else {
				for ; p+4 <= k; p += 4 {
					axpy4Generic(d0,
						bw[p*n:p*n+w], bw[(p+1)*n:(p+1)*n+w],
						bw[(p+2)*n:(p+2)*n+w], bw[(p+3)*n:(p+3)*n+w],
						ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i])
				}
			}
			for ; p < k; p++ {
				axpy1(d0, bw[p*n:p*n+w], ad[p*m+i])
			}
		}
	}
}

func zeroFloats(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// axpy4x2Generic computes, for j in [0, len(d0)):
//
//	d0[j] += a00*b0[j] + a01*b1[j] + a02*b2[j] + a03*b3[j]
//	d1[j] += a10*b0[j] + a11*b1[j] + a12*b2[j] + a13*b3[j]
//
// The reslicing below pins every slice to len(d0) so the compiler proves
// all inner-loop indexing in bounds (verified with -d=ssa/check_bce).
func axpy4x2Generic(d0, d1, b0, b1, b2, b3 []float32, a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	q1 := b1[:len(d0)]
	q2 := b2[:len(d0)]
	q3 := b3[:len(d0)]
	e1 := d1[:len(d0)]
	q0 := b0[:len(d0)]
	for j := range d0 {
		v0, v1, v2, v3 := q0[j], q1[j], q2[j], q3[j]
		d0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
		e1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
	}
}

// axpy4Generic is the single-row version of axpy4x2Generic with an
// identical per-element operation chain, so row pairing cannot change
// results.
func axpy4Generic(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	q1 := b1[:len(d)]
	q2 := b2[:len(d)]
	q3 := b3[:len(d)]
	q0 := b0[:len(d)]
	for j := range d {
		d[j] += a0*q0[j] + a1*q1[j] + a2*q2[j] + a3*q3[j]
	}
}

// axpy1 handles the k%4 remainder rows: d[j] += av*b[j].
func axpy1(d, b []float32, av float32) {
	q := b[:len(d)]
	for j := range d {
		d[j] += av * q[j]
	}
}

// dot1 is the scalar dot product used for the n%4 remainder columns of
// MatMulBT. Four partial accumulators break the add latency chain; the
// final combine order is fixed.
func dot1(a, b []float32) float32 {
	q := b[:len(a)]
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s0 += a[p] * q[p]
		s1 += a[p+1] * q[p+1]
		s2 += a[p+2] * q[p+2]
		s3 += a[p+3] * q[p+3]
	}
	var st float32
	for ; p < len(a); p++ {
		st += a[p] * q[p]
	}
	return ((s0 + s1) + (s2 + s3)) + st
}
