package linalg

import (
	"fmt"
	"math"
)

// LSQRMultiOptions tune a blocked LSQRMulti solve. The tolerance and
// iteration fields mean exactly what they mean on LSQROptions; they
// apply to every system of the block.
type LSQRMultiOptions struct {
	// Damp, ATol, BTol, MaxIter: see LSQROptions.
	Damp       float64
	ATol, BTol float64
	MaxIter    int
	// Work, when non-nil, supplies all working storage so steady-state
	// callers allocate nothing per solve. The returned report slice
	// aliases Work; copy it to keep it across solves.
	Work *LSQRMultiWork
}

// LSQRMultiWork holds the working storage of one blocked solve for
// reuse. The zero value is ready to use: buffers grow on demand and are
// fully overwritten before being read, so reuse cannot change results.
// Not safe for concurrent use; give each worker its own.
type LSQRMultiWork struct {
	// Interleaved k-wide iterate vectors.
	x, u, v, w []float64
	// Per-lane scalar state.
	lane [][]float64
	act  []bool
	upd  []bool
	reps []LSQRReport
}

// Indices into LSQRMultiWork.lane. Each entry is one per-lane scalar of
// the standalone LSQR recurrence.
const (
	lnAlpha = iota
	lnBeta
	lnBnorm
	lnRhobar
	lnPhibar
	lnAnorm
	lnXxnorm
	lnXnorm
	lnRes2
	lnCs2
	lnSn2
	lnZ
	lnT1
	lnT2
	lnInv
	lnMax
	lnSsq
	lnCount
)

func (wk *LSQRMultiWork) prepare(m, n, k int) {
	wk.x = grow(wk.x, n*k)
	wk.u = grow(wk.u, m*k)
	wk.v = grow(wk.v, n*k)
	wk.w = grow(wk.w, n*k)
	if len(wk.lane) < lnCount {
		wk.lane = make([][]float64, lnCount)
	}
	for i := range wk.lane {
		wk.lane[i] = grow(wk.lane[i], k)
	}
	if cap(wk.act) < k {
		wk.act = make([]bool, k)
		wk.upd = make([]bool, k)
	}
	wk.act = wk.act[:k]
	wk.upd = wk.upd[:k]
	if cap(wk.reps) < k {
		wk.reps = make([]LSQRReport, k)
	}
	wk.reps = wk.reps[:k]
	for c := range wk.reps {
		wk.reps[c] = LSQRReport{}
	}
}

// LSQRMulti solves k independent systems min ‖A·x_c − b_c‖² +
// damp²·‖x_c‖² that share one sparse operator, by running k standalone
// LSQR recurrences in lockstep over blocked mat-vec kernels. System c's
// solution, report, and iteration count are bit-identical to
// LSQR(a, bs[c], ...) with the same options — the blocked kernels
// accumulate every per-system value in the same order as the vector
// kernels, and each system stops by its own stopping test, after which
// its solution is frozen while the others run on. What the blocking
// buys is throughput: one traversal of the CSR index structure serves
// all still-running systems, which is the dominant cost of a sparse
// LSQR iteration.
//
// The blocking pays only from a few systems up. Measured cold on the
// ISPLike(100) routing system (148 iterations a system, 2-CPU host)
// against k separate LSQR calls: k=1 runs at 0.69–0.74x, k=2 at
// 0.90–0.96x, k=4 at 1.56–1.68x and k=8–16 at 1.74–1.99x; at n=22, k=1
// runs at 0.43x. So k ≤ 2 is slower than LSQR, and callers solve
// blocks of fewer than four systems through LSQR instead.
//
// bs holds the k right-hand sides (each length Rows); the solutions are
// written to dst (k slices, each length Cols). The returned reports
// alias opts.Work when it is supplied.
func LSQRMulti(a *Sparse, bs, dst [][]float64, opts LSQRMultiOptions) ([]LSQRReport, error) {
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
	atol, btol := opts.ATol, opts.BTol
	if atol <= 0 {
		atol = 1e-13
	}
	if btol <= 0 {
		btol = 1e-13
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 4 * (m + n)
	}
	damp := opts.Damp

	wk := opts.Work
	if wk == nil {
		wk = &LSQRMultiWork{}
	}
	wk.prepare(m, n, k)
	x, u, v, w := wk.x[:n*k], wk.u[:m*k], wk.v[:n*k], wk.w[:n*k]
	ln := wk.lane
	alpha, beta, bnorm := ln[lnAlpha], ln[lnBeta], ln[lnBnorm]
	rhobar, phibar := ln[lnRhobar], ln[lnPhibar]
	anorm, xxnorm, xnorm := ln[lnAnorm], ln[lnXxnorm], ln[lnXnorm]
	res2, cs2, sn2, zz := ln[lnRes2], ln[lnCs2], ln[lnSn2], ln[lnZ]
	t1, t2, inv, maxs, ssq := ln[lnT1], ln[lnT2], ln[lnInv], ln[lnMax], ln[lnSsq]
	active, upd := wk.act, wk.upd
	reps := wk.reps
	tr := a.transpose()

	// Initial iterate x = 0 and residual u = b, lane by lane in the
	// element order of the standalone path.
	for j := range x {
		x[j] = 0
	}
	for i := 0; i < m; i++ {
		us := u[i*k : i*k+k]
		for c := range us {
			us[c] = bs[c][i]
		}
	}
	normLanes(u, m, k, maxs, ssq, beta)
	copy(bnorm, beta)

	live := 0
	for c := 0; c < k; c++ {
		active[c] = beta[c] != 0
		if active[c] {
			live++
			inv[c] = 1 / beta[c]
		} else {
			// b = 0: x = 0 is exact.
			reps[c].Converged = true
			snapshotLane(dst[c], x, c, k)
			inv[c] = 1
		}
	}
	if live == 0 {
		return reps, nil
	}
	scaleLanes(u, inv)
	// v = Aᵀ·u, assigned directly (the standalone init path).
	tmulGatherVUpdate(tr, u, v, nil, nil, maxs, k, true)
	ssqLanes(v, n, k, maxs, ssq, alpha)
	for c := 0; c < k; c++ {
		if active[c] && alpha[c] == 0 {
			// Aᵀ·b = 0: x = 0 is already least-squares optimal.
			reps[c].ResidualNorm = beta[c]
			reps[c].Converged = true
			snapshotLane(dst[c], x, c, k)
			active[c] = false
			live--
		}
		if active[c] {
			inv[c] = 1 / alpha[c]
		} else {
			inv[c] = 1
		}
	}
	if live == 0 {
		return reps, nil
	}
	scaleLanes(v, inv)
	copy(w, v)

	for c := 0; c < k; c++ {
		rhobar[c] = alpha[c]
		phibar[c] = beta[c]
		anorm[c], xxnorm[c], xnorm[c] = 0, 0, 0
		res2[c] = 0
		cs2[c], sn2[c], zz[c] = -1, 0, 0
	}

	for iter := 1; iter <= maxIter && live > 0; iter++ {
		for c := 0; c < k; c++ {
			if active[c] {
				reps[c].Iterations = iter
			}
		}
		// β·u = A·v − α·u, fused with the max pass of Norm2(u).
		mulGatherUUpdate(a, v, u, alpha, maxs, k)
		ssqLanes(u, m, k, maxs, ssq, beta)
		for c := 0; c < k; c++ {
			upd[c] = beta[c] > 0
			if upd[c] {
				inv[c] = 1 / beta[c]
			} else {
				inv[c] = 1
			}
		}
		scaleLanes(u, inv)
		// α·v = Aᵀ·u − β·v for lanes with β > 0 (others keep v, α), fused
		// with the max pass of Norm2(v).
		tmulGatherVUpdate(tr, u, v, beta, upd, maxs, k, false)
		ssqLanesMasked(v, n, k, maxs, ssq, alpha, upd)
		for c := 0; c < k; c++ {
			if upd[c] && alpha[c] > 0 {
				inv[c] = 1 / alpha[c]
			} else {
				inv[c] = 1
			}
		}

		// Per-lane rotations and stopping-test scalars — the standalone
		// recurrence verbatim, indexed by lane.
		for c := 0; c < k; c++ {
			if !active[c] {
				t1[c], t2[c] = 0, 0
				continue
			}
			anorm[c] = math.Hypot(anorm[c], math.Hypot(alpha[c], math.Hypot(beta[c], damp)))

			rhobar1 := rhobar[c]
			psi := 0.0
			if damp > 0 {
				rhobar1 = math.Hypot(rhobar[c], damp)
				c1 := rhobar[c] / rhobar1
				s1 := damp / rhobar1
				psi = s1 * phibar[c]
				phibar[c] = c1 * phibar[c]
			}

			rho := math.Hypot(rhobar1, beta[c])
			cr := rhobar1 / rho
			sr := beta[c] / rho
			theta := sr * alpha[c]
			rhobar[c] = -cr * alpha[c]
			phi := cr * phibar[c]
			phibar[c] = sr * phibar[c]

			t1[c] = phi / rho
			t2[c] = -theta / rho

			res2[c] = math.Hypot(res2[c], psi)
			rnorm := math.Hypot(res2[c], phibar[c])
			arnorm := alpha[c] * math.Abs(sr*phi)
			delta := sn2[c] * rho
			gambar := -cs2[c] * rho
			rhs := phi - delta*zz[c]
			if gambar != 0 {
				zbar := rhs / gambar
				xnorm[c] = math.Sqrt(xxnorm[c] + zbar*zbar)
			}
			gamma := math.Hypot(gambar, theta)
			if gamma > 0 {
				cs2[c] = gambar / gamma
				sn2[c] = theta / gamma
				zz[c] = rhs / gamma
				xxnorm[c] += zz[c] * zz[c]
			}

			reps[c].ResidualNorm = rnorm
			reps[c].ATResidualNorm = arnorm
		}

		// x += t1·w; w = v + t2·w, with v's deferred 1/α scaling applied
		// element-by-element just before use (bit-identical to scaling v
		// in its own pass first).
		xwUpdateLanes(x, w, v, inv, t1, t2)

		for c := 0; c < k; c++ {
			if !active[c] {
				continue
			}
			rnorm := reps[c].ResidualNorm
			test1 := rnorm / bnorm[c]
			test2 := 0.0
			if anorm[c] > 0 && rnorm > 0 {
				test2 = reps[c].ATResidualNorm / (anorm[c] * rnorm)
			}
			done := test1 <= btol+atol*anorm[c]*xnorm[c]/bnorm[c] || test2 <= atol
			if done {
				reps[c].Converged = true
			} else if alpha[c] == 0 || beta[c] == 0 {
				// Bidiagonalization breakdown: the Krylov space is
				// exhausted and x is exact over it.
				reps[c].Converged = true
				done = true
			}
			if done {
				snapshotLane(dst[c], x, c, k)
				active[c] = false
				live--
			}
		}
	}
	for c := 0; c < k; c++ {
		if active[c] {
			snapshotLane(dst[c], x, c, k)
			active[c] = false
		}
	}
	return reps, nil
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
	for c := 0; c < k; c++ {
		maxs[c] = 0
	}
	for o := 0; o < rows*k; o += k {
		vs := v[o : o+k]
		for c, xv := range vs {
			if a := math.Abs(xv); a > maxs[c] {
				maxs[c] = a
			}
		}
	}
	ssqLanes(v, rows, k, maxs, ssq, norm)
}

// ssqLanes finishes a lane norm given the lane maxima: norm[c] =
// maxs[c]·sqrt(Σ (x/maxs[c])²), or 0 when the lane is all zero.
func ssqLanes(v []float64, rows, k int, maxs, ssq, norm []float64) {
	for c := 0; c < k; c++ {
		ssq[c] = 0
	}
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
		if maxs[c] == 0 {
			norm[c] = 0
		} else {
			norm[c] = maxs[c] * math.Sqrt(ssq[c])
		}
	}
}

// ssqLanesMasked is ssqLanes restricted to lanes with upd[c] set;
// other lanes keep their previous norm value untouched.
func ssqLanesMasked(v []float64, rows, k int, maxs, ssq, norm []float64, upd []bool) {
	for c := 0; c < k; c++ {
		ssq[c] = 0
	}
	for o := 0; o < rows*k; o += k {
		vs := v[o : o+k]
		for c, xv := range vs {
			if !upd[c] {
				continue
			}
			if mx := maxs[c]; mx > 0 {
				t := xv / mx
				ssq[c] += t * t
			}
		}
	}
	for c := 0; c < k; c++ {
		if !upd[c] {
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
// for the lanes it updates. With assign set (the init path) every lane
// is assigned v = Aᵀ·u directly; otherwise only lanes with upd[c] set
// are updated (β > 0), and the rest keep their previous v — and their
// previous norm state — bit for bit, as the standalone solver leaves v
// and α untouched when β = 0. The arithmetic per lane matches
// TMulVecTo + the standalone update loop exactly; see TMulMatTo for
// why the gather needs no zero-skip to match TMulVecTo.
func tmulGatherVUpdate(tr *Sparse, u, v []float64, beta []float64, upd []bool, maxs []float64, k int, assign bool) {
	for c := 0; c < k; c++ {
		if assign || upd[c] {
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
			if assign {
				vs[c], vs[c+1], vs[c+2], vs[c+3] = a0, a1, a2, a3
				vs[c+4], vs[c+5], vs[c+6], vs[c+7] = a4, a5, a6, a7
				foldMax(maxs, c, a0, a1, a2, a3)
				foldMax(maxs, c+4, a4, a5, a6, a7)
				continue
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
			if assign {
				vs[c], vs[c+1], vs[c+2], vs[c+3] = a0, a1, a2, a3
				foldMax(maxs, c, a0, a1, a2, a3)
			} else {
				if upd[c] {
					a0 -= beta[c] * vs[c]
					vs[c] = a0
					if ab := math.Abs(a0); ab > maxs[c] {
						maxs[c] = ab
					}
				}
				if upd[c+1] {
					a1 -= beta[c+1] * vs[c+1]
					vs[c+1] = a1
					if ab := math.Abs(a1); ab > maxs[c+1] {
						maxs[c+1] = ab
					}
				}
				if upd[c+2] {
					a2 -= beta[c+2] * vs[c+2]
					vs[c+2] = a2
					if ab := math.Abs(a2); ab > maxs[c+2] {
						maxs[c+2] = ab
					}
				}
				if upd[c+3] {
					a3 -= beta[c+3] * vs[c+3]
					vs[c+3] = a3
					if ab := math.Abs(a3); ab > maxs[c+3] {
						maxs[c+3] = ab
					}
				}
			}
		}
		for ; c < k; c++ {
			var acc float64
			for p, j := range row {
				acc += u[j*k+c] * vals[p]
			}
			if assign {
				vs[c] = acc
			} else if upd[c] {
				acc -= beta[c] * vs[c]
				vs[c] = acc
			} else {
				continue
			}
			if ab := math.Abs(acc); ab > maxs[c] {
				maxs[c] = ab
			}
		}
	}
}
