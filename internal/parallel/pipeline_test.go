package parallel

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"ictm/internal/rng"
)

// pipeCollect streams n items through a fresh pipeline and returns the
// output stream in arrival order.
func pipeCollect(workers, buffer, n int, fn func(int) (float64, error)) []Result[float64] {
	p := NewPipeline(workers, buffer, fn)
	done := make(chan []Result[float64])
	go func() {
		var got []Result[float64]
		for r := range p.Out() {
			got = append(got, r)
		}
		done <- got
	}()
	for i := 0; i < n; i++ {
		p.Submit(i)
	}
	p.Close()
	return <-done
}

// TestPipelineOrdered: results arrive in submission order for every
// worker count, even when late items finish first.
func TestPipelineOrdered(t *testing.T) {
	fn := func(i int) (float64, error) {
		if i%3 == 0 {
			time.Sleep(time.Millisecond) // make early items slow
		}
		return float64(i), nil
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got := pipeCollect(workers, 4, 60, fn)
		if len(got) != 60 {
			t.Fatalf("workers=%d: %d results for 60 items", workers, len(got))
		}
		for i, r := range got {
			if r.Err != nil || r.Value != float64(i) {
				t.Fatalf("workers=%d: slot %d holds (%g, %v)", workers, i, r.Value, r.Err)
			}
		}
	}
}

// TestPipelineDeterminismUnboundedStream is the streaming mirror of the
// ordered-pool contract tests: an input stream fed and consumed
// concurrently (never materialized as a batch) must produce a
// bit-identical output stream for workers=1 and workers=8. The per-item
// work draws from an index-keyed random stream and sums in a
// length-dependent order, so any reordering or duplication would change
// the bits.
func TestPipelineDeterminismUnboundedStream(t *testing.T) {
	const n = 500
	fn := func(i int) (float64, error) {
		r := rng.New(42).DeriveIndex(uint64(i))
		s := 0.0
		for k := 0; k < 20+i%7; k++ {
			s += r.LogNormal(0, 0.3)
		}
		return s, nil
	}
	run := func(workers int) []uint64 {
		out := pipeCollect(workers, 3, n, fn)
		bits := make([]uint64, len(out))
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, r.Err)
			}
			bits[i] = math.Float64bits(r.Value)
		}
		return bits
	}
	seq := run(1)
	par := run(8)
	if len(seq) != n || len(par) != n {
		t.Fatalf("stream lengths %d/%d, want %d", len(seq), len(par), n)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("item %d differs between workers=1 and workers=8: %016x vs %016x",
				i, seq[i], par[i])
		}
	}
}

// TestPipelineErrorsFlowInBand: a failing item reports its error in its
// own slot and the stream continues — the streaming pool must keep
// serving after a bad item, unlike ForEach's cancel-on-first-error.
func TestPipelineErrorsFlowInBand(t *testing.T) {
	fn := func(i int) (float64, error) {
		if i == 7 || i == 13 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return float64(i), nil
	}
	got := pipeCollect(4, 2, 20, fn)
	if len(got) != 20 {
		t.Fatalf("%d results for 20 items", len(got))
	}
	for i, r := range got {
		wantErr := i == 7 || i == 13
		if (r.Err != nil) != wantErr {
			t.Errorf("item %d: err=%v", i, r.Err)
		}
		if !wantErr && r.Value != float64(i) {
			t.Errorf("item %d: value %g", i, r.Value)
		}
	}
}

// TestPipelineBackpressureBounds: with nothing consuming the output, the
// number of items entered into the pipeline stays bounded by the
// in-flight window (workers + buffer plus the handoff slots), instead of
// growing with the producer.
func TestPipelineBackpressureBounds(t *testing.T) {
	const workers, buffer = 2, 3
	var started atomic.Int64
	p := NewPipeline(workers, buffer, func(i int) (int, error) {
		started.Add(1)
		return i, nil
	})
	go func() {
		for i := 0; i < 1000; i++ {
			p.Submit(i)
		}
		p.Close()
	}()
	// Give the producer every chance to overrun; without consuming Out()
	// it must stall at the window.
	time.Sleep(50 * time.Millisecond)
	// workers+buffer outstanding results, +1 in the collector's hands.
	if max := int64(workers + buffer + 1); started.Load() > max {
		t.Fatalf("%d items started with no consumer (window %d)", started.Load(), max)
	}
	n := 0
	for r := range p.Out() {
		if r.Value != n {
			t.Fatalf("slot %d holds %d", n, r.Value)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("drained %d of 1000", n)
	}
	if started.Load() != 1000 {
		t.Fatalf("started %d of 1000", started.Load())
	}
}

// TestPipelineCloseEmpty: closing an unused pipeline must close Out.
func TestPipelineCloseEmpty(t *testing.T) {
	p := NewPipeline(4, 0, func(i int) (int, error) { return i, nil })
	p.Close()
	if _, ok := <-p.Out(); ok {
		t.Fatal("Out open after Close on empty pipeline")
	}
}
