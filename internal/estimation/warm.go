package estimation

import (
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

// estimateChunkWarm estimates bins [lo, hi) sequentially through the
// grouped path (estimateGroup). The clean unweighted full-observability
// bins are solved in blocks of up to warmBlockK right-hand sides, every
// block warm-started from the previous block's last converged
// correction (the first block starts cold from the prior, so the chunk
// depends on nothing outside itself). Masked bins, weighted/dense
// option runs and every post-processing step go through exactly the
// same prepareBin/projectBin/finishBin stages as the cold path, so the
// two paths cannot drift in semantics or error text. The chunk reports
// its first failing bin's error.
func (e *Estimator) estimateChunkWarm(prior Prior, lo, hi int, observed func(int) ([]float64, error), finish func(int, *tm.TrafficMatrix, BinDiag) error) error {
	bins := make([]groupBin, hi-lo)
	for i := range bins {
		y, err := observed(lo + i)
		if err != nil {
			return err
		}
		bins[i].t, bins[i].y = lo+i, y
	}
	e.estimateGroup(prior, bins, warmBlockK, true)
	for i := range bins {
		b := &bins[i]
		if b.err != nil {
			return b.err
		}
		if err := finish(b.t, b.est, b.diag); err != nil {
			return err
		}
	}
	return nil
}
