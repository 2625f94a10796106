// Package routing builds the linear measurement operators of the TM
// estimation problem (Section 6 of the paper): the routing matrix R with
// Y = R·x relating the linearized traffic matrix x to observable link
// loads Y, including the ingress/egress "access link" rows the paper
// assumes are measured alongside internal links.
//
// Row layout of R (and of every load vector):
//
//	rows [0, L)        — internal directed links, in graph edge order,
//	                     with fractional entries under ECMP splitting
//	rows [L, L+n)      — ingress rows: row L+i sums all OD pairs (i, *)
//	rows [L+n, L+2n)   — egress rows:  row L+n+j sums all OD pairs (*, j)
//
// Self-pairs (i, i) never traverse internal links but do count toward
// node ingress and egress, matching how PoP-level byte counters behave.
package routing

import (
	"errors"
	"fmt"

	"ictm/internal/linalg"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// ErrInput reports invalid inputs to routing construction.
var ErrInput = errors.New("routing: invalid input")

// Matrix is a routing matrix with its layout metadata.
//
// The matrix is stored sparse-first: Build assembles the CSR form
// directly from the ECMP path fractions — R is incidence-like, a few
// nonzeros per column out of L+2n rows, so the sparse form is the only
// one whose cost scales to hundred-node topologies (the dense form of an
// n=200 network alone is ~300 MB). The CSR view is immutable once built;
// routing changes (link failures, re-weighted ECMP) yield a new Matrix —
// incrementally via Patch for a topology delta, or from scratch via
// Build. No estimation path materializes the dense form; a caller that
// needs it calls CSR().Dense().
type Matrix struct {
	// N is the number of access points; L the number of directed links.
	N, L int

	// csr is the (L + 2n) x n² routing matrix in CSR form, built at
	// construction and never mutated.
	csr *linalg.Sparse
}

// CSR returns the sparse view of R. It is built once at construction and
// is safe for concurrent use.
func (m *Matrix) CSR() *linalg.Sparse { return m.csr }

// FromCSR wraps an explicit CSR routing matrix with its layout metadata
// (tests and callers assembling measurement operators by hand). The
// matrix must have l + 2n rows and n² columns.
func FromCSR(csr *linalg.Sparse, n, l int) (*Matrix, error) {
	if csr.Rows() != l+2*n || csr.Cols() != n*n {
		return nil, fmt.Errorf("%w: CSR %dx%d for n=%d l=%d (want %dx%d)",
			ErrInput, csr.Rows(), csr.Cols(), n, l, l+2*n, n*n)
	}
	return &Matrix{N: n, L: l, csr: csr}, nil
}

// Build constructs the routing matrix for graph g under shortest-path
// ECMP routing: 2n Dijkstra sweeps (Graph.SweepDists, cached on g for a
// later Patch), then one ECMP fraction pass per OD pair, in (i, j)
// order, on one ECMPRouter that orders the nodes once per source. The
// entries arrive in column order, so NewSparse buckets them into CSR
// rows without a sort and without touching the O((L+2n)·n²) dense
// layout.
func Build(g *topology.Graph) (*Matrix, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrInput)
	}
	d, err := g.SweepDists()
	if err != nil {
		return nil, err
	}
	r, err := g.NewECMPRouter(d)
	if err != nil {
		return nil, err
	}
	l := g.NumEdges()
	entries := make([]linalg.Coord, 0, n*n*2)
	for i := 0; i < n; i++ {
		if err := r.SetSource(i); err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			col := tm.PairIndex(n, i, j)
			fr, err := r.Fractions(j)
			if err != nil {
				return nil, fmt.Errorf("routing: pair (%d,%d): %w", i, j, err)
			}
			for _, f := range fr {
				entries = append(entries, linalg.Coord{Row: f.Edge, Col: col, Val: f.Frac})
			}
			entries = append(entries,
				linalg.Coord{Row: l + i, Col: col, Val: 1},     // ingress at i
				linalg.Coord{Row: l + n + j, Col: col, Val: 1}) // egress at j
		}
	}
	csr, err := linalg.NewSparse(l+2*n, n*n, entries)
	if err != nil {
		return nil, fmt.Errorf("routing: assemble CSR: %w", err)
	}
	return &Matrix{N: n, L: l, csr: csr}, nil
}

// Rows returns the total number of measurement rows, L + 2n.
func (m *Matrix) Rows() int { return m.L + 2*m.N }

// LinkLoads returns Y = R·vec(x) for a traffic matrix x, computed on
// the cached sparse view of R (which assumes R is never mutated; see
// the Matrix type comment).
func (m *Matrix) LinkLoads(x *tm.TrafficMatrix) ([]float64, error) {
	if x.N() != m.N {
		return nil, fmt.Errorf("%w: matrix over %d nodes for n=%d routing", ErrInput, x.N(), m.N)
	}
	return m.CSR().MulVec(x.Vec())
}

// SplitLoads separates a load vector into its internal-link, ingress and
// egress components.
func (m *Matrix) SplitLoads(y []float64) (links, ingress, egress []float64, err error) {
	if len(y) != m.Rows() {
		return nil, nil, nil, fmt.Errorf("%w: load vector of %d, want %d", ErrInput, len(y), m.Rows())
	}
	return y[:m.L], y[m.L : m.L+m.N], y[m.L+m.N:], nil
}

// Utilizations returns per-internal-link loads divided by capacity.
// A single scalar capacity applies to every link.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (m *Matrix) Utilizations(x *tm.TrafficMatrix, capacity float64) ([]float64, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity %g", ErrInput, capacity)
	}
	y, err := m.LinkLoads(x)
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.L)
	for i := 0; i < m.L; i++ {
		out[i] = y[i] / capacity
	}
	return out, nil
}
