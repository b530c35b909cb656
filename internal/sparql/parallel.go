package sparql

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Morsel-parallel evaluation.
//
// The driving scan of each pattern group — the level-0 scan the serial
// DFS would seed every join from — is enumerated once, in serial
// emission order, and cut into fixed-size morsels. N workers execute
// the join chain (deeper scan levels, level filters, OPTIONAL blocks,
// stage filters) over whole morsels, all scanning through the one
// PinRead session the evaluation already holds: the pin keeps every
// shard read-locked for the duration, so workers never touch a lock and
// can never deadlock against queued writers. The coordinator then feeds
// per-morsel results into the modifier tail in morsel order.
//
// Determinism argument: the concatenation of the morsels is exactly the
// serial driving-scan order, each worker preserves its morsel's
// internal order (it replays the same DFS the serial path runs), and
// the coordinator consumes results in morsel order — so the row stream
// entering the modifier tail is byte-identical to serial evaluation,
// for every tail shape:
//
//   - plain / DISTINCT / aggregate tails see the same rows in the same
//     order, so slicing, dedup and grouping behave identically;
//   - the bounded ORDER BY tail additionally lets workers pre-prune
//     each morsel to its local top k: a row beaten by k rows of its own
//     morsel is beaten by those k rows globally (the heap's
//     (key, arrival) order is a strict total order, and same-morsel
//     rows keep their serial relative arrival order), so it can never
//     be in the global top k. Survivors are emitted in arrival order,
//     which keeps the final heap's tie-break identical to serial.
//
// Early exit (LIMIT satisfied) closes abortCh: the enumerator stops
// scanning, workers drop to draining no-ops, and the already-pushed
// prefix of rows is exactly the prefix serial evaluation would have
// produced.

// parallelMorselSize is the driving-scan batch size. A variable, not a
// const, so tests can shrink it to force many-morsel schedules on small
// fixtures; set only from single-threaded test setup.
var parallelMorselSize = 1024

// serializedBudget wraps a Budget so concurrent workers can charge it;
// the callback itself then needs no internal locking.
func serializedBudget(b Budget) Budget {
	var mu sync.Mutex
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		return b()
	}
}

// morselJob is one batch of driving-scan triples bound for a worker.
// res has capacity 1, so the worker's single send never blocks even
// when the coordinator aborted and will read the result late (or, for
// a job that never reached the order channel, not at all).
type morselJob struct {
	grp   int // index into parallelRun.groups
	batch [][3]uint32
	res   chan morselResult
}

type morselResult struct {
	rows [][]uint32 // owned copies, in serial-equivalent order
	err  error
}

// workerSink collects one morsel's surviving rows inside a worker.
type workerSink interface {
	sink
	reset()
	take() [][]uint32
}

// morselBuf buffers row copies; rowCap >= 0 stops the morsel's DFS once
// that many rows survived (valid only when the tail's slice receives
// every produced row unconditionally, so rows past Offset+Limit can
// never be emitted).
type morselBuf struct {
	rows   [][]uint32
	rowCap int // -1 = unbounded
}

func (b *morselBuf) push(row []uint32) bool {
	b.rows = append(b.rows, append([]uint32(nil), row...))
	return b.rowCap < 0 || len(b.rows) < b.rowCap
}

func (b *morselBuf) flush() bool      { return true }
func (b *morselBuf) reset()           { b.rows = nil }
func (b *morselBuf) take() [][]uint32 { return b.rows }

// morselTopK pre-prunes a morsel to its local top k using the same heap
// operator the tail runs, then hands the survivors back in arrival
// order — the order the global heap needs to reproduce serial
// tie-breaking. The heap items own row copies, so taking them is safe.
type morselTopK struct {
	op *topKOp
}

func (m *morselTopK) push(row []uint32) bool { return m.op.push(row) }
func (m *morselTopK) flush() bool            { return true }

func (m *morselTopK) reset() {
	m.op.heap = m.op.heap[:0]
	m.op.seq = 0
}

func (m *morselTopK) take() [][]uint32 {
	h := m.op.heap
	sort.Slice(h, func(i, j int) bool { return h[i].seq < h[j].seq })
	rows := make([][]uint32, len(h))
	for i := range h {
		rows[i] = h[i].row
	}
	return rows
}

// parGroup is one pattern group prepared for parallel execution: the
// compiled patterns plus the level-0 binding spec every worker replays
// per morsel triple.
type parGroup struct {
	cps []compiledPattern
	lb0 levelBind
}

type parallelRun struct {
	x       *exec
	workers int
	spec    tailSpec
	groups  []parGroup
	lf      []*filterStage // shared, read-only once built

	abort     atomic.Bool
	abortCh   chan struct{}
	abortOnce sync.Once

	// unsupported: the graph has no morsel scan. Written by the
	// enumerator before it exits, read by run after waiting for it.
	unsupported bool
}

// newParallelRun prepares a morsel-parallel execution of the plan's
// groups. Returns nil when the shape cannot run parallel (a degenerate
// empty group) — the caller falls back to serial.
func newParallelRun(x *exec, workers int, spec tailSpec) *parallelRun {
	r := &parallelRun{x: x, workers: workers, spec: spec, abortCh: make(chan struct{})}
	zero := make([]uint32, x.pl.width())
	for _, cps := range x.groups {
		if len(cps) == 0 {
			return nil
		}
		r.groups = append(r.groups, parGroup{cps: cps, lb0: bindSpec(cps[0], zero)})
	}
	r.lf = x.levelFilterStages()
	return r
}

func (r *parallelRun) doAbort() {
	r.abortOnce.Do(func() {
		r.abort.Store(true)
		close(r.abortCh)
	})
}

// run drives the parallel execution and pushes the merged row stream
// into tail. On return all goroutines have exited (the caller releases
// the pin right after), and any worker error is in r.x.err. It reports
// false, with tail untouched, when the graph has no morsel scan — the
// caller falls back to serial.
func (r *parallelRun) run(tail sink) bool {
	jobs := make(chan *morselJob)
	// order carries every job a second time, in morsel order, to the
	// merging loop below; its capacity bounds the morsels in flight.
	order := make(chan *morselJob, r.workers*4)

	var wg sync.WaitGroup
	for i := 0; i < r.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.workerLoop(jobs)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.enumerate(jobs, order)
	}()

	// Merge: consume results in morsel order. After an abort keep
	// draining — every job in order was sent to jobs first, so a worker
	// owes it a result — but stop feeding the tail.
	var firstErr error
	aborted := false
	for job := range order {
		res := <-job.res
		if aborted {
			continue
		}
		if res.err != nil {
			firstErr = res.err
			aborted = true
			r.doAbort()
			continue
		}
		for _, row := range res.rows {
			if !tail.push(row) {
				aborted = true
				r.doAbort()
				break
			}
		}
	}
	wg.Wait()
	if firstErr != nil && r.x.err == nil {
		r.x.err = firstErr
	}
	return !r.unsupported
}

// enumerate cuts each group's driving scan into morsels. Jobs go to the
// worker channel first and the order channel second: the merge loop
// only ever waits on jobs a worker is guaranteed to see, so an abort
// between the two sends can orphan a job's result but never deadlock.
func (r *parallelRun) enumerate(jobs chan<- *morselJob, order chan<- *morselJob) {
	defer close(order)
	defer close(jobs)
	zero := make([]uint32, r.x.pl.width())
	for gi := range r.groups {
		g := &r.groups[gi]
		if !g.cps[0].ok {
			continue // a constant missing from the dictionary: no matches
		}
		s, p, o := g.cps[0].s.value(zero), g.cps[0].p.value(zero), g.cps[0].o.value(zero)
		supported := r.x.g.ScanMorselsPinned(s, p, o, parallelMorselSize, func(batch [][3]uint32) bool {
			job := &morselJob{grp: gi, batch: batch, res: make(chan morselResult, 1)}
			select {
			case jobs <- job:
			case <-r.abortCh:
				return false
			}
			select {
			case order <- job:
			case <-r.abortCh:
				return false
			}
			return true
		})
		if !supported {
			r.unsupported = true
			return
		}
		if r.abort.Load() {
			return
		}
	}
}

// workerLoop executes whole morsels: for each driving-scan triple it
// replays the serial level-0 step — budget tick, binding (with
// repeated-variable checks), level-0 filters — then runs the remaining
// join levels and row stages through this worker's private chain.
// Everything the workers share (compiled patterns, filter stages, the
// serialized budget, the pinned scan function) is read-only or
// internally synchronized; per-row state (the row buffer, filter
// scratch, OPTIONAL match flags, the morsel sink) is per-worker.
func (r *parallelRun) workerLoop(jobs <-chan *morselJob) {
	x := r.x
	wx := &exec{pl: x.pl, g: x.g, budget: x.budget, optionals: x.optionals}
	var ws workerSink
	if r.spec.topK {
		ws = &morselTopK{op: &topKOp{
			x: wx, k: r.spec.k, desc: r.spec.desc, keySlot: r.spec.keySlot, label: r.spec.label,
		}}
	} else {
		ws = &morselBuf{rowCap: r.spec.rowCap}
	}
	chain := wx.buildRowStages(ws)
	row := make([]uint32, x.pl.width())

	for job := range jobs {
		if r.abort.Load() {
			job.res <- morselResult{}
			continue
		}
		wx.err = nil
		ws.reset()
		g := &r.groups[job.grp]
		for _, t := range job.batch {
			if r.abort.Load() {
				break
			}
			if !wx.tick() {
				break
			}
			if !g.lb0.apply(row, t[0], t[1], t[2]) {
				continue
			}
			keep := true
			if r.lf != nil && r.lf[0] != nil {
				keep = wx.applyFilterStage(r.lf[0], row)
			}
			ok := true
			if keep && wx.err == nil {
				ok = wx.runSeq(g.cps, r.lf, 1, row, chain)
			}
			g.lb0.clear(row)
			if !ok || wx.err != nil {
				break // sink satisfied (row cap) or budget error
			}
		}
		job.res <- morselResult{rows: ws.take(), err: wx.err}
	}
}
