package estimation

import (
	"fmt"

	"ictm/internal/linalg"
	"ictm/internal/tm"
)

// Block geometry of the blocked projection (solveBlocked).
//
// minBlockLanes is the smallest block worth a linalg.LSQRMulti call:
// smaller blocks solve lane by lane through linalg.LSQR, which is
// bitwise-identical per lane. Measured on ISPLike(100) (148 iterations
// a bin, 2-CPU host), an LSQRMulti block runs at 0.69–0.74x of per-bin
// LSQR with one lane and 0.90–0.96x with two, and at 1.56–1.68x with
// four; at n=22 one lane runs at 0.43x.
//
// maxBlockLanes is the widest block EstimateBins forms and the longest
// chunk EstimateSeries cuts: 1.74–1.89x at 8 lanes, 1.92–1.93x at 12
// and 1.88–1.99x at 16 (same host), so wider blocks buy nothing but
// working storage (k·n² floats per Lanczos vector).
const (
	minBlockLanes = 4
	maxBlockLanes = 16
)

// groupBin carries one bin of a group through the grouped path's
// stages: observation, validation, prior, solve and post-processing.
type groupBin struct {
	t       int
	y       []float64
	keep    []bool
	dropped int
	ing, eg []float64 // alias y (SplitLoads)
	p       *tm.TrafficMatrix
	diag    BinDiag
	est     *tm.TrafficMatrix
	err     error
	blocked bool // projected as a lane of an LSQRMulti call
}

// Observation is one bin's input to EstimateBins: the link-load vector
// Y (routing row layout) observed at bin index T.
type Observation struct {
	T int
	Y []float64
}

// BinOutcome is one bin's result from EstimateBins: the estimate, the
// diagnostics and the error EstimateBin returns for the same bin.
type BinOutcome struct {
	Estimate *tm.TrafficMatrix
	Diag     BinDiag
	Err      error
	// Blocked reports that the bin's projection ran as one lane of a
	// blocked linalg.LSQRMulti call. It records the solve path only;
	// the estimate and diagnostics are the same either way.
	Blocked bool
}

// EstimateBins estimates several bins against one prior on the calling
// goroutine and returns, for obs[i], exactly what EstimateBin(prior,
// obs[i].T, obs[i].Y) returns — estimate, diagnostics and error text,
// bit for bit. What it adds is throughput: the clean (fully observed)
// bins of an unweighted session are projected together, up to 16 at a
// time, by one cold linalg.LSQRMulti call, whose lanes are
// bitwise-identical to per-bin LSQR solves; fewer than four such bins
// solve one by one. Masked and weighted bins take EstimateBin's per-bin
// path.
func (e *Estimator) EstimateBins(prior Prior, obs []Observation) []BinOutcome {
	bins := make([]groupBin, len(obs))
	for i, o := range obs {
		bins[i].t, bins[i].y = o.T, o.Y
	}
	e.estimateGroup(prior, bins)
	out := make([]BinOutcome, len(bins))
	for i, b := range bins {
		out[i] = BinOutcome{Estimate: b.est, Diag: b.diag, Err: b.err, Blocked: b.blocked}
	}
	return out
}

// estimateGroup runs bins through EstimateBin's stages in place,
// recording each bin's estimate or error: projectGroup, then finishBin.
// Sharing the stages with EstimateBin is what keeps the grouped paths'
// semantics and error text identical to it.
func (e *Estimator) estimateGroup(prior Prior, bins []groupBin) {
	e.projectGroup(prior, bins)
	for i := range bins {
		b := &bins[i]
		if b.err != nil {
			continue
		}
		if err := finishBin(e.solver, b.est, b.ing, b.eg, e.opts, &b.diag); err != nil {
			b.est, b.err = nil, fmt.Errorf("estimation: IPF bin %d: %w", b.t, err)
		}
	}
}

// projectGroup runs bins through EstimateBin's stages up to the
// projection, leaving each bin's unclamped projection in b.est (or its
// error in b.err): prepareBin for every bin, solveBlocked for the clean
// unweighted ones, projectBin for the rest.
func (e *Estimator) projectGroup(prior Prior, bins []groupBin) {
	s := e.solver
	// The blocked solver implements only the unweighted projection: a
	// weighted session routes every bin through projectBin below (masked
	// bins always do).
	blockable := !e.opts.Weighted
	lanes := make([]*groupBin, 0, len(bins))
	for i := range bins {
		b := &bins[i]
		b.diag = BinDiag{IPFConverged: true}
		b.keep, b.dropped, b.ing, b.eg, b.p, b.err = prepareBin(s, prior, b.t, b.y)
		if b.err == nil && blockable && b.dropped == 0 {
			lanes = append(lanes, b)
		}
	}
	s.solveBlocked(lanes)
	for i := range bins {
		b := &bins[i]
		if b.err != nil || b.est != nil {
			continue
		}
		est, err := projectBin(s, b.p, b.y, b.keep, b.dropped, e.opts, &b.diag)
		if err != nil {
			b.err = fmt.Errorf("estimation: project bin %d: %w", b.t, err)
			continue
		}
		b.est = est
	}
}

// solveBlocked projects clean, unweighted, fully observed bins in
// blocks of up to maxBlockLanes: one linalg.LSQRMulti call per block of
// at least minBlockLanes, one linalg.LSQR per lane below that. Every
// solve starts from zero, so each lane is bitwise-identical to
// Solver.Project on its bin. Each lane is settled by Solver.Project's
// stall policy (settle, which keeps the iterate) and gets its estimate
// or error. Working storage comes from the solver's scratch pool.
func (s *Solver) solveBlocked(lanes []*groupBin) {
	if len(lanes) == 0 {
		return
	}
	csr := s.rm.CSR()
	sc := s.getScratch()
	defer s.putScratch(sc)
	for start := 0; start < len(lanes); start += maxBlockLanes {
		blk := lanes[start:min(start+maxBlockLanes, len(lanes))]
		bs, dst := sc.block(len(blk), csr.Cols())
		reps, err := s.solveLanes(blk, bs, dst, sc)
		for i, b := range blk {
			if err != nil {
				b.err = fmt.Errorf("estimation: project bin %d: %w", b.t, err)
				continue
			}
			var pr Projection
			b.est, pr = settle(b.p, dst[i], nil, reps[i])
			b.diag.recordProjection(pr)
			b.blocked = len(blk) >= minBlockLanes
		}
	}
}

// solveLanes forms one block's residuals in bs and solves them into
// dst: by LSQRMulti from minBlockLanes lanes up, lane by lane by
// LSQR below. An error names the step that failed, as Solver.Project's
// would.
func (s *Solver) solveLanes(blk []*groupBin, bs, dst [][]float64, sc *solveScratch) ([]linalg.LSQRReport, error) {
	csr := s.rm.CSR()
	var err error
	for i, b := range blk {
		if bs[i], err = s.residual(bs[i], b.p, b.y, nil); err != nil {
			return nil, err
		}
	}
	if len(blk) >= minBlockLanes {
		reps, err := linalg.LSQRMulti(csr, bs, dst, linalg.LSQROptions{MaxIter: s.maxIter, Work: &sc.lsqr})
		if err != nil {
			return nil, fmt.Errorf("estimation: projection: %w", err)
		}
		return reps, nil
	}
	sc.reps = sc.reps[:0]
	for i := range blk {
		z, rep, err := linalg.LSQR(csr, bs[i], linalg.LSQROptions{MaxIter: s.maxIter, Work: &sc.lsqr})
		if err != nil {
			return nil, fmt.Errorf("estimation: projection: %w", err)
		}
		copy(dst[i], z)
		sc.reps = append(sc.reps, rep)
	}
	return sc.reps, nil
}
