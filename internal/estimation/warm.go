package estimation

import (
	"fmt"

	"ictm/internal/linalg"
	"ictm/internal/parallel"
	"ictm/internal/tm"
)

// Chunk geometry of the warm-started series path (WithWarmStart).
//
// warmChunkBins is the fixed number of consecutive bins one chunk
// covers. Chunks are the unit of parallelism AND the warm-start
// boundary: the first block of every chunk starts cold, so no chunk
// reads another chunk's results and the partition depends only on the
// series length — never on the worker count — which is what keeps the
// workers=1 ≡ workers=N bitwise contract intact.
//
// warmBlockK is how many right-hand sides one linalg.LSQRMulti call
// carries. 8 keeps the blocked Lanczos vectors L2-resident at the
// n=100–200 scales the benchmarks pin (the interleaved V panel is
// k·n² floats) while already amortizing nearly all of the CSR traversal
// the blocked kernels can amortize; larger k measured within a few
// percent of it.
const (
	warmChunkBins = 16
	warmBlockK    = 8
)

// warmBin carries one bin of a chunk through the warm path's stages:
// observation, validation, prior, residual (blockable bins), solve and
// post-processing.
type warmBin struct {
	t       int
	y       []float64
	keep    []bool
	dropped int
	ing, eg []float64 // alias y (SplitLoads)
	p       *tm.TrafficMatrix
	res     []float64 // measurement residual; only set on blockable bins
	diag    BinDiag
	est     *tm.TrafficMatrix
}

// estimateSeriesWarm is EstimateSeries' warm-started, blocked solve
// path: fixed-size contiguous chunks fan out over the worker bound and
// each chunk is estimated sequentially by estimateChunkWarm. observed
// must return an owned observation for bin t (faults applied);
// finish stores one completed bin's result.
func (e *Estimator) estimateSeriesWarm(prior Prior, bins int, observed func(int) ([]float64, error), finish func(int, *tm.TrafficMatrix, BinDiag) error) error {
	chunks := (bins + warmChunkBins - 1) / warmChunkBins
	return parallel.ForEach(e.opts.Workers, chunks, func(c int) error {
		lo := c * warmChunkBins
		hi := min(lo+warmChunkBins, bins)
		return e.estimateChunkWarm(prior, lo, hi, observed, finish)
	})
}

// estimateChunkWarm estimates bins [lo, hi) sequentially. The clean
// unweighted full-observability bins are solved in blocks of up to
// warmBlockK right-hand sides by one LSQRMulti call each, every block
// warm-started from the previous block's last converged correction
// (the first block starts cold from the prior, so the chunk depends on
// nothing outside itself). Masked bins, weighted/dense option runs and
// every post-processing step go through exactly the same prepareBin/
// projectBin/finishBin stages as the cold path, so the two paths cannot
// drift in semantics or error text.
func (e *Estimator) estimateChunkWarm(prior Prior, lo, hi int, observed func(int) ([]float64, error), finish func(int, *tm.TrafficMatrix, BinDiag) error) error {
	s := e.solver
	// The blocked solver implements only the default projection: any
	// weighted or dense option routes every bin through projectBin below
	// (masked bins always do).
	blockable := !e.opts.Weighted && !e.opts.Dense
	bw := make([]warmBin, hi-lo)
	var group []*warmBin
	for i := range bw {
		b := &bw[i]
		b.t = lo + i
		b.diag = BinDiag{IPFConverged: true}
		y, err := observed(b.t)
		if err != nil {
			return err
		}
		b.y = y
		if b.keep, b.dropped, b.ing, b.eg, b.p, err = prepareBin(s, prior, b.t, y); err != nil {
			return err
		}
		if blockable && b.dropped == 0 {
			if b.res, err = s.residual(nil, b.p, y, nil); err != nil {
				return err
			}
			group = append(group, b)
		}
	}
	if err := e.solveBlocked(group); err != nil {
		return err
	}
	for i := range bw {
		b := &bw[i]
		if b.est == nil {
			est, err := projectBin(s, b.p, b.y, b.keep, b.dropped, e.opts, &b.diag)
			if err != nil {
				return fmt.Errorf("estimation: project bin %d: %w", b.t, err)
			}
			b.est = est
		}
		if err := finishBin(s, b.est, b.ing, b.eg, e.opts, &b.diag); err != nil {
			return fmt.Errorf("estimation: IPF bin %d: %w", b.t, err)
		}
		if err := finish(b.t, b.est, b.diag); err != nil {
			return err
		}
	}
	return nil
}

// solveBlocked runs one chunk's blockable bins through LSQRMulti in
// blocks of up to warmBlockK, chaining the warm start between blocks,
// and settles each bin's estimate by the same stall policy as
// Solver.Project (Solver.settle).
func (e *Estimator) solveBlocked(group []*warmBin) error {
	if len(group) == 0 {
		return nil
	}
	s := e.solver
	csr := s.rm.CSR()
	sc := s.getScratch()
	defer s.putScratch(sc)
	var x0 []float64
	for start := 0; start < len(group); start += warmBlockK {
		g := group[start:min(start+warmBlockK, len(group))]
		bs := make([][]float64, len(g))
		dst := make([][]float64, len(g))
		for i, b := range g {
			bs[i] = b.res
			dst[i] = make([]float64, csr.Cols())
		}
		reps, err := linalg.LSQRMulti(csr, bs, dst, linalg.LSQRMultiOptions{MaxIter: s.maxIter, X0: x0, Work: &sc.multi})
		if err != nil {
			return fmt.Errorf("estimation: project bin %d: %w", g[0].t, err)
		}
		for i, b := range g {
			est, pr, err := s.settle(b.p, b.y, dst[i], nil, reps[i], false)
			if err != nil {
				return fmt.Errorf("estimation: project bin %d: %w", b.t, err)
			}
			b.est = est
			b.diag.recordProjection(pr, false)
			b.diag.WarmStarted = x0 != nil
		}
		// The next block warm-starts from this block's last correction —
		// dst is owned storage (never recycled by the Work area), so the
		// chain survives the next LSQRMulti call.
		x0 = dst[len(g)-1]
	}
	return nil
}
