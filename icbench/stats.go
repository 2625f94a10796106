package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"ictm/internal/serve"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, and 0
// for no samples (JSON has no NaN; the sample count says it is empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile is percentile for tail quantiles: it refuses (ok=false)
// unless at least ten samples lie beyond the quantile, the least a tail
// estimate needs to mean anything.
func tailPercentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	beyond := n - int(math.Ceil(q*float64(n)))
	if n == 0 || beyond < 10 {
		return 0, false
	}
	return percentile(xs, q), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parseStats decodes a /v1/stats reply.
func parseStats(body []byte) (serve.Stats, error) {
	var s serve.Stats
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return s, nil
}

// cpuPerBin is the server's CPU ms per bin served in each step between
// consecutive snapshots; a step in which no bin completed is skipped.
func cpuPerBin(snaps []snapshot) []float64 {
	var out []float64
	for i := 1; i < len(snaps); i++ {
		bins := snaps[i].stats.Bins - snaps[i-1].stats.Bins
		if bins > 0 {
			out = append(out, ms(snaps[i].cpu-snaps[i-1].cpu)/float64(bins))
		}
	}
	return out
}

// statsDelta is the counter growth between two /v1/stats snapshots.
type statsDelta struct {
	Bins, LSQRIterations, DegradedBins int64
	Evictions                          int64 // solver pool + registry
	RoutingBuilds                      int64
	StoreHits, StoreMisses             int64
}

func deltaOf(a, b serve.Stats) statsDelta {
	return statsDelta{
		Bins:           b.Bins - a.Bins,
		LSQRIterations: b.LSQRIterations - a.LSQRIterations,
		DegradedBins:   b.DegradedBins - a.DegradedBins,
		Evictions: (b.TopologiesEvicted + b.RegistrationsEvicted) -
			(a.TopologiesEvicted + a.RegistrationsEvicted),
		RoutingBuilds: b.RoutingBuilds - a.RoutingBuilds,
		StoreHits:     b.StoreHits - a.StoreHits,
		StoreMisses:   b.StoreMisses - a.StoreMisses,
	}
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
