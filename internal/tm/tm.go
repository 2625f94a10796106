// Package tm defines the traffic-matrix data model shared by every other
// package: a single-interval origin-destination (OD) matrix, a time series
// of such matrices, marginal (ingress/egress) extraction, the relative-L2
// error metrics from the paper, and CSV/JSON serialization.
//
// Conventions. A TrafficMatrix X over n access points stores X[i][j] =
// bytes entering the network at node i and leaving at node j during one
// measurement interval. "Ingress at i" is the row sum X_{i*}; "egress at
// j" is the column sum X_{*j}; X_{**} is the grand total. OD flows are
// linearized row-major: pair (i, j) has index i*n + j.
package tm

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("tm: incompatible shapes")

// TrafficMatrix is a single-interval n x n OD byte-count matrix.
type TrafficMatrix struct {
	n    int
	data []float64 // row-major, len n*n
}

// New returns a zero traffic matrix over n nodes.
func New(n int) *TrafficMatrix {
	if n < 0 {
		panic(fmt.Sprintf("tm: negative size %d", n))
	}
	return &TrafficMatrix{n: n, data: make([]float64, n*n)}
}

// FromVec builds a traffic matrix from a row-major linearized vector of
// length n*n. The data is copied.
func FromVec(n int, vec []float64) (*TrafficMatrix, error) {
	if len(vec) != n*n {
		return nil, fmt.Errorf("%w: vector of %d for n=%d", ErrShape, len(vec), n)
	}
	t := New(n)
	copy(t.data, vec)
	return t, nil
}

// N returns the number of access points.
func (t *TrafficMatrix) N() int { return t.n }

// At returns the OD flow volume from origin i to destination j.
func (t *TrafficMatrix) At(i, j int) float64 {
	t.check(i, j)
	return t.data[i*t.n+j]
}

// Set assigns the OD flow volume from origin i to destination j.
func (t *TrafficMatrix) Set(i, j int, v float64) {
	t.check(i, j)
	t.data[i*t.n+j] = v
}

// Add adds v to the OD flow from i to j.
func (t *TrafficMatrix) Add(i, j int, v float64) {
	t.check(i, j)
	t.data[i*t.n+j] += v
}

func (t *TrafficMatrix) check(i, j int) {
	if i < 0 || i >= t.n || j < 0 || j >= t.n {
		panic(fmt.Sprintf("tm: index (%d,%d) out of range for n=%d", i, j, t.n))
	}
}

// Vec returns the row-major linearized flows. The slice aliases the
// matrix's storage: mutations are visible in t.
func (t *TrafficMatrix) Vec() []float64 { return t.data }

// Clone returns a deep copy.
func (t *TrafficMatrix) Clone() *TrafficMatrix {
	out := New(t.n)
	copy(out.data, t.data)
	return out
}

// Ingress returns the row sums X_{i*} for all i (traffic entering at i).
func (t *TrafficMatrix) Ingress() []float64 {
	return t.IngressInto(make([]float64, t.n))
}

// IngressInto computes the row sums into dst (which must have length n)
// and returns it — the allocation-free form of Ingress for steady-state
// callers that reuse a scratch buffer. The sums are bit-identical to
// Ingress: same accumulation order, every entry overwritten.
func (t *TrafficMatrix) IngressInto(dst []float64) []float64 {
	if len(dst) != t.n {
		panic(fmt.Sprintf("tm: ingress buffer of %d for n=%d", len(dst), t.n))
	}
	for i := 0; i < t.n; i++ {
		var s float64
		row := t.data[i*t.n : (i+1)*t.n]
		for _, v := range row {
			s += v
		}
		dst[i] = s
	}
	return dst
}

// Egress returns the column sums X_{*j} for all j (traffic leaving at j).
func (t *TrafficMatrix) Egress() []float64 {
	return t.EgressInto(make([]float64, t.n))
}

// EgressInto computes the column sums into dst (which must have length
// n) and returns it — the allocation-free counterpart of Egress, bit-
// identical to it (dst is zeroed first, then accumulated in the same
// order).
func (t *TrafficMatrix) EgressInto(dst []float64) []float64 {
	if len(dst) != t.n {
		panic(fmt.Sprintf("tm: egress buffer of %d for n=%d", len(dst), t.n))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < t.n; i++ {
		row := t.data[i*t.n : (i+1)*t.n]
		for j, v := range row {
			dst[j] += v
		}
	}
	return dst
}

// Total returns the grand total X_{**}.
func (t *TrafficMatrix) Total() float64 {
	var s float64
	for _, v := range t.data {
		s += v
	}
	return s
}

// Norm returns the Euclidean norm of the linearized matrix.
func (t *TrafficMatrix) Norm() float64 {
	var maxAbs float64
	for _, v := range t.data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range t.data {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// ClampNonNegative zeroes any negative entries in place (used after
// estimation steps that can produce small negative flows) and returns
// the total amount of negative mass removed.
func (t *TrafficMatrix) ClampNonNegative() float64 {
	var removed float64
	for i, v := range t.data {
		if v < 0 {
			removed -= v
			t.data[i] = 0
		}
	}
	return removed
}

// PairIndex returns the linearized index of OD pair (i, j) for size n.
func PairIndex(n, i, j int) int { return i*n + j }

// PairFromIndex is the inverse of PairIndex.
func PairFromIndex(n, idx int) (i, j int) { return idx / n, idx % n }

// Series is a time series of traffic matrices over a fixed node set.
type Series struct {
	n    int
	mats []*TrafficMatrix
	// BinSeconds is the measurement interval length; informational.
	BinSeconds int
}

// NewSeries returns an empty series over n nodes with the given bin size.
func NewSeries(n, binSeconds int) *Series {
	return &Series{n: n, BinSeconds: binSeconds}
}

// N returns the number of access points.
func (s *Series) N() int { return s.n }

// Len returns the number of time bins.
func (s *Series) Len() int { return len(s.mats) }

// Append adds a matrix to the series. It returns ErrShape (wrapped) when
// the matrix size disagrees with the series.
func (s *Series) Append(m *TrafficMatrix) error {
	if m.N() != s.n {
		return fmt.Errorf("%w: appending n=%d matrix to n=%d series", ErrShape, m.N(), s.n)
	}
	s.mats = append(s.mats, m)
	return nil
}

// At returns the matrix at time bin t. The matrix is shared, not copied.
func (s *Series) At(t int) *TrafficMatrix {
	if t < 0 || t >= len(s.mats) {
		panic(fmt.Sprintf("tm: series bin %d out of range [0,%d)", t, len(s.mats)))
	}
	return s.mats[t]
}

// Slice returns a sub-series sharing matrices with s over bins [lo, hi).
func (s *Series) Slice(lo, hi int) (*Series, error) {
	if lo < 0 || hi > len(s.mats) || lo > hi {
		return nil, fmt.Errorf("%w: slice [%d,%d) of series with %d bins", ErrShape, lo, hi, len(s.mats))
	}
	out := NewSeries(s.n, s.BinSeconds)
	out.mats = s.mats[lo:hi]
	return out, nil
}

// IngressSeries returns an n x T matrix-like slice: result[i][t] is the
// ingress count of node i at bin t.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (s *Series) IngressSeries() [][]float64 {
	out := make([][]float64, s.n)
	for i := range out {
		out[i] = make([]float64, len(s.mats))
	}
	for t, m := range s.mats {
		ing := m.Ingress()
		for i, v := range ing {
			out[i][t] = v
		}
	}
	return out
}

// EgressSeries returns an n x T slice of per-node egress counts.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (s *Series) EgressSeries() [][]float64 {
	out := make([][]float64, s.n)
	for i := range out {
		out[i] = make([]float64, len(s.mats))
	}
	for t, m := range s.mats {
		eg := m.Egress()
		for i, v := range eg {
			out[i][t] = v
		}
	}
	return out
}

// MeanMatrix returns the element-wise time average of the series.
// It returns ErrShape (wrapped) for an empty series.
func (s *Series) MeanMatrix() (*TrafficMatrix, error) {
	if len(s.mats) == 0 {
		return nil, fmt.Errorf("%w: mean of empty series", ErrShape)
	}
	out := New(s.n)
	for _, m := range s.mats {
		for k, v := range m.data {
			out.data[k] += v
		}
	}
	inv := 1 / float64(len(s.mats))
	for k := range out.data {
		out.data[k] *= inv
	}
	return out, nil
}
