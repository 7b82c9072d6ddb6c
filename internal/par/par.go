// Package par is the repo's one indexed parallel-for. The search engine's
// per-generation batches, the co-opt per-layer fan-out and the figure-cell
// runners share the same shape — N independent slots, bounded workers,
// first error in index order, deterministic results because every slot
// owns its output — so the pattern lives here once: a Crew runs it, and
// a parallel For call is a one-shot crew.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// For runs fn(0..n-1) across up to workers goroutines (≤ 1 = serial) and
// returns the first error in index order. Each index is claimed by exactly
// one goroutine; callers get deterministic results regardless of the
// worker count as long as fn(i) writes only to slot i. The calling
// goroutine is one of the workers; once a slot has failed, slots above it
// that have not started are skipped. A serial call allocates nothing:
// the per-layer fan-out runs it once per evaluation.
func For(n, workers int, fn func(i int) error) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	c := NewCrew(workers)
	defer c.Stop()
	return c.Run(n, fn)
}

// Crew is a team of goroutines for a sequence of indexed jobs: the
// coordinator — the goroutine that made it and submits its jobs — plus
// size−1 helper goroutines that live until Stop. It saves a fork/join per
// job: starting and waking goroutines onto an idle CPU costs 50–70 µs, a
// fifth of a small model's search generation, and a 40K-sample search
// runs over a thousand generations.
//
// A job is fn(0..n-1), each index claimed by exactly one member, the first
// error in index order reported. Items become claimable as the coordinator
// releases them, so it can produce the batch (breed the children) while
// helpers already work on the released prefix. Results never depend on
// the crew size as long as every item writes only its own slot.
//
// Every wait in the crew — a helper's for the next job or for a claimed
// item's release, the coordinator's for the last item to finish — polls
// for spin and then parks, so a member never holds a CPU for longer than
// that waiting on another.
//
// A crew of one member runs every job on the coordinator, in index order,
// once the whole batch is released.
type Crew struct {
	size int // members: the coordinator plus the helpers

	job  atomic.Pointer[Job] // latest published job
	quit atomic.Bool

	mu       sync.Mutex // guards parking; wake announces any change a member may wait for
	wake     *sync.Cond
	sleepers atomic.Int32 // members parked on wake
	done     sync.WaitGroup
}

// spin is how long a waiting member polls before parking: about one
// wake's cost, so the coordinator's bookkeeping between two batches and
// the breeding of one child never pay a wake, while a member left waiting
// longer gives its CPU back within tens of microseconds.
const spin = 50 * time.Microsecond

// Job is one published batch. Each job is a fresh value: a helper that
// wakes late may still hold the previous job, and finding every index of
// it claimed is all it can do there.
type Job struct {
	c       *Crew
	n       int64
	fn      func(i int) error
	next    atomic.Int64 // next unclaimed index
	ready   atomic.Int64 // indices below it are released
	pending atomic.Int64 // items not yet finished or skipped
	errAt   atomic.Int64 // lowest failed index; n while none has failed

	mu  sync.Mutex // guards err
	err error
}

// NewCrew starts a crew of max(workers, 1) members. Stop it on every path
// out of its owner.
func NewCrew(workers int) *Crew {
	c := &Crew{size: max(workers, 1)}
	c.wake = sync.NewCond(&c.mu)
	c.done.Add(c.size - 1)
	for h := 1; h < c.size; h++ {
		go c.helper()
	}
	return c
}

// Stop ends the helpers and returns once every one has left its loop. A
// helper mid-item finishes the item first; one waiting for an item the
// coordinator never released (it panicked while producing) gives up.
func (c *Crew) Stop() {
	c.quit.Store(true)
	c.mu.Lock()
	c.wake.Broadcast()
	c.mu.Unlock()
	c.done.Wait()
}

// Start publishes a job of n items, the first ready of them released, and
// returns it for the coordinator to release the rest (Job.Release) and
// then finish (Crew.Finish).
func (c *Crew) Start(n, ready int, fn func(i int) error) *Job {
	j := &Job{c: c, n: int64(n), fn: fn}
	j.errAt.Store(int64(n))
	j.pending.Store(int64(n))
	j.ready.Store(int64(ready))
	if c.size > 1 {
		c.job.Store(j)
		c.signal()
	}
	return j
}

// Release makes items [0, ready) claimable.
func (j *Job) Release(ready int) {
	j.ready.Store(int64(ready))
	j.c.signal()
}

// Finish releases the whole job, joins its drain and returns once every
// item has finished, with the first error in index order.
func (c *Crew) Finish(j *Job) error {
	j.Release(int(j.n))
	c.work(j)
	if j.pending.Load() > 0 {
		c.wait(func() bool { return j.pending.Load() == 0 })
	}
	return j.err
}

// Run is Start plus Finish: fn(0..n-1) across the crew, all released up
// front.
func (c *Crew) Run(n int, fn func(i int) error) error {
	return c.Finish(c.Start(n, n, fn))
}

// work claims and runs items of j until none is left to claim. A claimed
// item that is not yet released is waited for: the coordinator releases
// items one production step apart. An item above a failed one is skipped:
// the job's error is already fixed below it.
func (c *Crew) work(j *Job) {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		if j.ready.Load() <= i {
			c.wait(func() bool { return c.quit.Load() || j.ready.Load() > i })
			if j.ready.Load() <= i {
				return // the crew stopped
			}
		}
		if i < j.errAt.Load() {
			if err := j.fn(int(i)); err != nil {
				j.mu.Lock()
				if i < j.errAt.Load() {
					j.errAt.Store(i)
					j.err = err
				}
				j.mu.Unlock()
			}
		}
		if j.pending.Add(-1) == 0 {
			c.signal()
		}
	}
}

// helper is one helper goroutine's loop: wait for a job it has not seen,
// work on it, repeat until the crew stops.
func (c *Crew) helper() {
	defer c.done.Done()
	var seen *Job
	for {
		c.wait(func() bool { return c.quit.Load() || c.job.Load() != seen })
		if c.quit.Load() {
			return
		}
		seen = c.job.Load()
		c.work(seen)
	}
}

// wait returns once cond holds: polling it for spin, then parked until a
// signal finds it true. Whatever makes a waited-for cond true stores its
// change and then calls signal; since a parker counts itself in sleepers
// before it tests cond under mu, either it sees the change or the signal
// sees it and wakes it.
func (c *Crew) wait(cond func() bool) {
	for t0 := time.Now(); !cond(); runtime.Gosched() {
		if time.Since(t0) < spin {
			continue
		}
		c.mu.Lock()
		c.sleepers.Add(1)
		for !cond() {
			c.wake.Wait()
		}
		c.sleepers.Add(-1)
		c.mu.Unlock()
		return
	}
}

// signal wakes the parked members, if any, after a change one of them may
// be waiting for.
func (c *Crew) signal() {
	if c.sleepers.Load() > 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
}
