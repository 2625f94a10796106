package linalg

import (
	"fmt"
	"math"
)

// prepare sizes the working storage of a k-system LSQRMulti solve of an
// m×n operator.
func (wk *LSQRWork) prepare(m, n, k int) {
	wk.x = grow(wk.x, n*k)
	wk.u = grow(wk.u, m*k)
	wk.v = grow(wk.v, n*k)
	wk.w = grow(wk.w, n*k)
	for _, s := range []*[]float64{&wk.alpha, &wk.beta, &wk.inv, &wk.t1, &wk.t2, &wk.maxs, &wk.ssq} {
		*s = grow(*s, k)
	}
	if cap(wk.lanes) < k {
		wk.lanes = make([]lane, k)
		wk.upd = make([]bool, k)
		wk.reps = make([]LSQRReport, k)
	}
	wk.lanes, wk.upd, wk.reps = wk.lanes[:k], wk.upd[:k], wk.reps[:k]
}

// LSQRMulti solves k independent systems min ‖A·x_c − b_c‖² that share
// one sparse operator, by running k LSQR recurrences (lanes) in
// lockstep over blocked mat-vec kernels. System c's solution, report,
// and iteration count are bit-identical to LSQR(a, bs[c], opts) — the
// blocked kernels accumulate every per-system value in the same order
// as the vector kernels, and each system stops by its own stopping
// test, after which its solution is frozen while the others run on.
// What the blocking buys is throughput: one traversal of the CSR index
// structure serves all still-running systems, which is the dominant
// cost of a sparse LSQR iteration. It pays only from a few systems up;
// the estimation layer's minBlockLanes records the measured crossover.
//
// bs holds the k right-hand sides (each length Rows); the solutions are
// written to dst (k slices, each length Cols). The returned reports
// alias opts.Work when it is supplied.
func LSQRMulti(a *Sparse, bs, dst [][]float64, opts LSQROptions) ([]LSQRReport, error) {
	m, n := a.Rows(), a.Cols()
	k := len(bs)
	if len(dst) != k {
		return nil, fmt.Errorf("%w: LSQRMulti with %d systems and %d outputs", ErrShape, k, len(dst))
	}
	if k == 0 {
		return nil, nil
	}
	for c := range bs {
		if len(bs[c]) != m {
			return nil, fmt.Errorf("%w: LSQRMulti A %dx%d with b[%d] of %d", ErrShape, m, n, c, len(bs[c]))
		}
		if len(dst[c]) != n {
			return nil, fmt.Errorf("%w: LSQRMulti A %dx%d with dst[%d] of %d", ErrShape, m, n, c, len(dst[c]))
		}
	}
	wk := opts.Work
	if wk == nil {
		wk = &LSQRWork{}
	}
	wk.prepare(m, n, k)
	x, u, v, w := wk.x, wk.u, wk.v, wk.w
	lanes, upd := wk.lanes, wk.upd
	alpha, beta, inv, t1, t2, maxs, ssq := wk.alpha, wk.beta, wk.inv, wk.t1, wk.t2, wk.maxs, wk.ssq
	tr := a.transpose()

	// Start every lane as LSQR starts: x = 0, β·u = b, α·v = Aᵀ·u. The
	// transposed product runs the iteration's update v = Aᵀ·u − β·v from
	// v = 0 with β = 0 (t2 is zero here), which assigns Aᵀ·u bit for bit.
	clear(x)
	clear(v)
	clear(t2)
	for i := 0; i < m; i++ {
		us := u[i*k : i*k+k]
		for c := range us {
			us[c] = bs[c][i]
		}
	}
	normLanes(u, m, k, maxs, ssq, beta)
	for c := range inv {
		inv[c] = 1
		if beta[c] > 0 {
			inv[c] = 1 / beta[c]
		}
		upd[c] = true
	}
	scaleLanes(u, inv)
	tmulGatherVUpdate(tr, u, v, t2, upd, maxs, k)
	ssqLanes(v, n, k, maxs, ssq, alpha, nil)
	live := 0
	for c := range lanes {
		inv[c] = 1
		if lanes[c].start(beta[c], alpha[c]) {
			snapshotLane(dst[c], x, c, k)
			continue
		}
		inv[c] = 1 / alpha[c]
		live++
	}
	scaleLanes(v, inv)
	copy(w, v)

	for iter := 1; iter <= opts.maxIter(m, n) && live > 0; iter++ {
		// β·u = A·v − α·u, fused with the max pass of Norm2(u).
		mulGatherUUpdate(a, v, u, alpha, maxs, k)
		ssqLanes(u, m, k, maxs, ssq, beta, nil)
		for c := range inv {
			upd[c] = beta[c] > 0
			inv[c] = 1
			if upd[c] {
				inv[c] = 1 / beta[c]
			}
		}
		scaleLanes(u, inv)
		// α·v = Aᵀ·u − β·v for lanes with β > 0 (others keep v, α), fused
		// with the max pass of Norm2(v).
		tmulGatherVUpdate(tr, u, v, beta, upd, maxs, k)
		ssqLanes(v, n, k, maxs, ssq, alpha, upd)
		for c := range lanes {
			inv[c] = 1
			if upd[c] && alpha[c] > 0 {
				inv[c] = 1 / alpha[c]
			}
			t1[c], t2[c] = 0, 0
			if !lanes[c].rep.Converged {
				t1[c], t2[c] = lanes[c].step(alpha[c], beta[c])
			}
		}

		// x += t1·w; w = v + t2·w, with v's deferred 1/α scaling applied
		// element-by-element just before use (bit-identical to scaling v
		// in its own pass first).
		xwUpdateLanes(x, w, v, inv, t1, t2)

		for c := range lanes {
			if l := &lanes[c]; l.rep.Converged && l.rep.Iterations == iter {
				snapshotLane(dst[c], x, c, k)
				live--
			}
		}
	}
	for c := range lanes {
		if !lanes[c].rep.Converged {
			snapshotLane(dst[c], x, c, k)
		}
		wk.reps[c] = lanes[c].rep
	}
	return wk.reps, nil
}

// snapshotLane copies lane c of the interleaved k-wide vector src into
// the contiguous dst.
func snapshotLane(dst, src []float64, c, k int) {
	for j := range dst {
		dst[j] = src[j*k+c]
	}
}

// scaleLanes multiplies lane c of the interleaved vector by s[c]. A
// lane factor of exactly 1 leaves the lane bit-identical, so callers
// skip lanes by passing 1.
func scaleLanes(v []float64, s []float64) {
	k := len(s)
	for o := 0; o < len(v); o += k {
		vs := v[o : o+k]
		for c, f := range s {
			vs[c] *= f
		}
	}
}

// normLanes computes norm[c] = Norm2 of lane c (length rows) of the
// interleaved vector, with Norm2's exact two-pass scaled algorithm per
// lane. maxs and ssq are lane scratch.
func normLanes(v []float64, rows, k int, maxs, ssq, norm []float64) {
	clear(maxs[:k])
	for o := 0; o < rows*k; o += k {
		vs := v[o : o+k]
		for c, xv := range vs {
			if a := math.Abs(xv); a > maxs[c] {
				maxs[c] = a
			}
		}
	}
	ssqLanes(v, rows, k, maxs, ssq, norm, nil)
}

// ssqLanes finishes a lane norm given the lane maxima: norm[c] =
// maxs[c]·sqrt(Σ (x/maxs[c])²), or 0 when the lane is all zero. A
// non-nil upd restricts the result to lanes with upd[c] set: the others
// keep their previous norm value untouched, and their sums, taken over
// a stale maximum, are discarded.
func ssqLanes(v []float64, rows, k int, maxs, ssq, norm []float64, upd []bool) {
	clear(ssq[:k])
	for o := 0; o < rows*k; o += k {
		vs := v[o : o+k]
		for c, xv := range vs {
			if mx := maxs[c]; mx > 0 {
				t := xv / mx
				ssq[c] += t * t
			}
		}
	}
	for c := 0; c < k; c++ {
		if upd != nil && !upd[c] {
			continue
		}
		if maxs[c] == 0 {
			norm[c] = 0
		} else {
			norm[c] = maxs[c] * math.Sqrt(ssq[c])
		}
	}
}

// xwUpdateLanes performs the fused end-of-iteration vector update for
// all lanes: v ← v·inv (the deferred 1/α normalization), then
// x += t1·w and w = v + t2·w, element order identical to the standalone
// solver's separate ScaleVec and update loops.
func xwUpdateLanes(x, w, v []float64, inv, t1, t2 []float64) {
	k := len(inv)
	for o := 0; o < len(x); o += k {
		xs := x[o : o+k]
		ws := w[o : o+k]
		vs := v[o : o+k]
		for c := range xs {
			vi := vs[c] * inv[c]
			vs[c] = vi
			wi := ws[c]
			xs[c] += t1[c] * wi
			ws[c] = vi + t2[c]*wi
		}
	}
}

// mulGatherUUpdate computes u = A·v − α·u fused into the row gather,
// folding in the first (max) pass of Norm2(u): per lane, the new u
// entries and the running max of their magnitudes are produced in the
// same element order as the standalone MulVecTo + update + Norm2
// sequence.
func mulGatherUUpdate(a *Sparse, v, u []float64, alpha, maxs []float64, k int) {
	for c := 0; c < k; c++ {
		maxs[c] = 0
	}
	for i := 0; i < a.rows; i++ {
		row := a.colIdx[a.rowPtr[i]:a.rowPtr[i+1]]
		vals := a.val[a.rowPtr[i]:a.rowPtr[i+1]]
		us := u[i*k : i*k+k]
		c := 0
		for ; c+8 <= k; c += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for p, j := range row {
				vv := vals[p]
				xb := v[j*k+c : j*k+c+8 : j*k+c+8]
				a0 += vv * xb[0]
				a1 += vv * xb[1]
				a2 += vv * xb[2]
				a3 += vv * xb[3]
				a4 += vv * xb[4]
				a5 += vv * xb[5]
				a6 += vv * xb[6]
				a7 += vv * xb[7]
			}
			a0 -= alpha[c] * us[c]
			a1 -= alpha[c+1] * us[c+1]
			a2 -= alpha[c+2] * us[c+2]
			a3 -= alpha[c+3] * us[c+3]
			a4 -= alpha[c+4] * us[c+4]
			a5 -= alpha[c+5] * us[c+5]
			a6 -= alpha[c+6] * us[c+6]
			a7 -= alpha[c+7] * us[c+7]
			us[c], us[c+1], us[c+2], us[c+3] = a0, a1, a2, a3
			us[c+4], us[c+5], us[c+6], us[c+7] = a4, a5, a6, a7
			foldMax(maxs, c, a0, a1, a2, a3)
			foldMax(maxs, c+4, a4, a5, a6, a7)
		}
		for ; c+4 <= k; c += 4 {
			var a0, a1, a2, a3 float64
			for p, j := range row {
				vv := vals[p]
				xb := v[j*k+c : j*k+c+4 : j*k+c+4]
				a0 += vv * xb[0]
				a1 += vv * xb[1]
				a2 += vv * xb[2]
				a3 += vv * xb[3]
			}
			a0 -= alpha[c] * us[c]
			a1 -= alpha[c+1] * us[c+1]
			a2 -= alpha[c+2] * us[c+2]
			a3 -= alpha[c+3] * us[c+3]
			us[c], us[c+1], us[c+2], us[c+3] = a0, a1, a2, a3
			foldMax(maxs, c, a0, a1, a2, a3)
		}
		for ; c < k; c++ {
			var acc float64
			for p, j := range row {
				acc += vals[p] * v[j*k+c]
			}
			acc -= alpha[c] * us[c]
			us[c] = acc
			if ab := math.Abs(acc); ab > maxs[c] {
				maxs[c] = ab
			}
		}
	}
}

// vUpdateLane applies v = acc − β·v plus the max fold to one lane of a
// gather tile, honoring the update mask.
func vUpdateLane(vs, beta []float64, upd []bool, maxs []float64, c int, acc float64) {
	if !upd[c] {
		return
	}
	acc -= beta[c] * vs[c]
	vs[c] = acc
	if ab := math.Abs(acc); ab > maxs[c] {
		maxs[c] = ab
	}
}

// foldMax folds four lane magnitudes into the running lane maxima.
func foldMax(maxs []float64, c int, a0, a1, a2, a3 float64) {
	if ab := math.Abs(a0); ab > maxs[c] {
		maxs[c] = ab
	}
	if ab := math.Abs(a1); ab > maxs[c+1] {
		maxs[c+1] = ab
	}
	if ab := math.Abs(a2); ab > maxs[c+2] {
		maxs[c+2] = ab
	}
	if ab := math.Abs(a3); ab > maxs[c+3] {
		maxs[c+3] = ab
	}
}

// tmulGatherVUpdate computes v = Aᵀ·u − β·v over the cached transpose,
// fused into the gather, folding in the first (max) pass of Norm2(v)
// for the lanes it updates. Only lanes with upd[c] set are updated
// (β > 0); the rest keep their previous v — and their previous norm
// state — bit for bit, as LSQR leaves v and α untouched when β = 0.
// The arithmetic per lane matches TMulVecTo + LSQR's update loop
// exactly. The gather needs no zero-skip to match TMulVecTo's scatter
// bitwise: each accumulator starts at +0 and takes its terms in the
// same ascending-row order, and adding ±0·v for finite v never flips an
// accumulator's bits.
func tmulGatherVUpdate(tr *Sparse, u, v []float64, beta []float64, upd []bool, maxs []float64, k int) {
	for c := 0; c < k; c++ {
		if upd[c] {
			maxs[c] = 0
		}
	}
	for i := 0; i < tr.rows; i++ {
		row := tr.colIdx[tr.rowPtr[i]:tr.rowPtr[i+1]]
		vals := tr.val[tr.rowPtr[i]:tr.rowPtr[i+1]]
		vs := v[i*k : i*k+k]
		c := 0
		for ; c+8 <= k; c += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for p, j := range row {
				vv := vals[p]
				xb := u[j*k+c : j*k+c+8 : j*k+c+8]
				a0 += xb[0] * vv
				a1 += xb[1] * vv
				a2 += xb[2] * vv
				a3 += xb[3] * vv
				a4 += xb[4] * vv
				a5 += xb[5] * vv
				a6 += xb[6] * vv
				a7 += xb[7] * vv
			}
			vUpdateLane(vs, beta, upd, maxs, c, a0)
			vUpdateLane(vs, beta, upd, maxs, c+1, a1)
			vUpdateLane(vs, beta, upd, maxs, c+2, a2)
			vUpdateLane(vs, beta, upd, maxs, c+3, a3)
			vUpdateLane(vs, beta, upd, maxs, c+4, a4)
			vUpdateLane(vs, beta, upd, maxs, c+5, a5)
			vUpdateLane(vs, beta, upd, maxs, c+6, a6)
			vUpdateLane(vs, beta, upd, maxs, c+7, a7)
		}
		for ; c+4 <= k; c += 4 {
			var a0, a1, a2, a3 float64
			for p, j := range row {
				vv := vals[p]
				xb := u[j*k+c : j*k+c+4 : j*k+c+4]
				a0 += xb[0] * vv
				a1 += xb[1] * vv
				a2 += xb[2] * vv
				a3 += xb[3] * vv
			}
			vUpdateLane(vs, beta, upd, maxs, c, a0)
			vUpdateLane(vs, beta, upd, maxs, c+1, a1)
			vUpdateLane(vs, beta, upd, maxs, c+2, a2)
			vUpdateLane(vs, beta, upd, maxs, c+3, a3)
		}
		for ; c < k; c++ {
			var acc float64
			for p, j := range row {
				acc += u[j*k+c] * vals[p]
			}
			vUpdateLane(vs, beta, upd, maxs, c, acc)
		}
	}
}
