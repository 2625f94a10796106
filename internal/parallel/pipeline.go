package parallel

import "sync"

// Result is one item's outcome in a Pipeline stream. Unlike ForEach —
// which cancels a bounded batch at the first failure — a streaming
// pipeline must keep serving after a bad item, so per-item errors travel
// in-band: the stream continues and the consumer decides what a failed
// item means.
type Result[R any] struct {
	Value R
	Err   error
}

// Pipeline is the streaming variant of the ordered worker pool: a fixed
// set of workers maps an unbounded input stream through a per-item
// function, emitting one result per item on Out() in exact submission
// order with bounded buffering. An idle worker takes the oldest pending
// item. Submit blocks once workers+buffer items are submitted and not
// yet collected for Out() — backpressure propagates to the producer
// instead of growing an unbounded queue.
//
// Determinism contract (the streaming mirror of ForEach's): every item
// is processed independently and results are reassembled in submission
// order, so for a pure per-item fn the output stream is bit-identical
// for any worker count, including workers=1. Worker count tunes
// wall-clock and nothing else.
//
// Submit may be called from multiple goroutines; the output order is
// then the serialization order of the Submit calls themselves (for a
// deterministic stream, submit from one goroutine). After Close, Submit
// must not be called again; Out() drains the remaining in-flight items
// and is then closed.
type Pipeline[T, R any] struct {
	// window holds one token per submitted, not yet collected item: the
	// backpressure bound. Its capacity is the length of the rings below,
	// so an item's ring index seq%len is free whenever Submit gets a
	// token for it.
	window chan struct{}
	out    chan Result[R]

	// Items and results live in fixed rings indexed by sequence number,
	// not in a channel per item, so a stream allocates nothing per item.
	mu       sync.Mutex
	pendingC *sync.Cond // signalled when an item is submitted or the stream closes
	doneC    *sync.Cond // signalled when results land or the stream closes
	items    []T        // ring: the value of each submitted, untaken item
	results  []Result[R]
	filled   []bool // ring: results[i] holds an uncollected result
	// Item sequence numbers: [taken, submitted) are pending, and
	// [collected, taken) are with the workers or awaiting collection.
	submitted, taken, collected int
	closed                      bool
}

// NewPipeline starts a streaming ordered pool of Resolve(workers)
// workers over fn. buffer is the number of completed-but-uncollected
// results tolerated beyond the worker count before Submit blocks;
// values < 0 select 0 (in-flight bounded by the worker count alone).
func NewPipeline[T, R any](workers, buffer int, fn func(T) (R, error)) *Pipeline[T, R] {
	w := Resolve(workers)
	size := w + max(buffer, 0)
	p := &Pipeline[T, R]{
		window:  make(chan struct{}, size),
		out:     make(chan Result[R]),
		items:   make([]T, size),
		results: make([]Result[R], size),
		filled:  make([]bool, size),
	}
	p.pendingC = sync.NewCond(&p.mu)
	p.doneC = sync.NewCond(&p.mu)
	// Workers wind down once the stream is closed and drained; no one
	// waits on them directly — delivery of every submitted item is
	// guaranteed by the collector, which exits only after the last one.
	for g := 0; g < w; g++ {
		go p.work(fn)
	}
	go p.collect()
	return p
}

// work is one worker's loop: take the oldest pending item, run fn on
// it, store the result at the item's ring index.
func (p *Pipeline[T, R]) work(fn func(T) (R, error)) {
	var zero T
	size := len(p.items)
	for {
		p.mu.Lock()
		for p.taken == p.submitted && !p.closed {
			p.pendingC.Wait()
		}
		if p.taken == p.submitted {
			p.mu.Unlock()
			return
		}
		j := p.taken % size
		v := p.items[j]
		p.items[j] = zero
		p.taken++
		p.mu.Unlock()

		r, err := fn(v)

		p.mu.Lock()
		p.results[j], p.filled[j] = Result[R]{Value: r, Err: err}, true
		p.mu.Unlock()
		p.doneC.Signal()
	}
}

// collect delivers results to Out() in submission order, releasing each
// item's window token as it is collected, and closes Out() after the
// last item of a closed stream.
func (p *Pipeline[T, R]) collect() {
	size := len(p.items)
	for {
		p.mu.Lock()
		j := p.collected % size
		for !p.filled[j] && !(p.closed && p.collected == p.submitted) {
			p.doneC.Wait()
		}
		if !p.filled[j] {
			p.mu.Unlock()
			close(p.out)
			return
		}
		r := p.results[j]
		p.results[j], p.filled[j] = Result[R]{}, false
		p.collected++
		p.mu.Unlock()
		<-p.window
		p.out <- r
	}
}

// Submit hands one item to the pool, blocking while the in-flight window
// is full (bounded backpressure).
func (p *Pipeline[T, R]) Submit(v T) {
	p.window <- struct{}{}
	p.mu.Lock()
	p.items[p.submitted%len(p.items)] = v
	p.submitted++
	p.mu.Unlock()
	p.pendingC.Signal()
}

// Close ends the input stream: workers wind down after finishing the
// items already submitted, and Out() closes once they are all delivered.
func (p *Pipeline[T, R]) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.pendingC.Broadcast()
	p.doneC.Broadcast()
}

// Out returns the ordered result stream. It is closed after Close once
// every submitted item has been delivered.
func (p *Pipeline[T, R]) Out() <-chan Result[R] { return p.out }
