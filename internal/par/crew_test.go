package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// atLeastProcs raises GOMAXPROCS to n for the test, so a crew of n gets
// helpers racing the coordinator even on a host with fewer CPUs.
func atLeastProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), n))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCrewJobContract is the randomized property test of a crew job
// across crew sizes, batch sizes and release schedules: every index up to
// the first failing one runs exactly once, no index runs twice or before
// the coordinator released it, and the error reported is the failing one
// with the lowest index. A crew of one stops at the first failure, as a
// serial loop does.
func TestCrewJobContract(t *testing.T) {
	atLeastProcs(t, 4)
	rng := rand.New(rand.NewSource(0xc4e3))
	for _, size := range []int{1, 2, 3, 5} {
		c := NewCrew(size)
		for trial := 0; trial < 60; trial++ {
			n := rng.Intn(70)
			errAt := make([]error, n)
			first := -1
			for i := range errAt {
				if rng.Float64() < 0.05 {
					errAt[i] = fmt.Errorf("slot %d failed", i)
					if first < 0 {
						first = i
					}
				}
			}
			released := make([]atomic.Bool, n)
			calls := make([]atomic.Int32, n)
			var early atomic.Int32
			fn := func(i int) error {
				if !released[i].Load() {
					early.Add(1)
				}
				calls[i].Add(1)
				return errAt[i]
			}
			var err error
			if trial%2 == 0 {
				// Overlapped: released one slot at a time, as breeding does.
				j := c.Start(n, 0, fn)
				for i := 0; i < n; i++ {
					// Let a helper claim slot i first, so the release gate,
					// not timing, is what holds it back.
					for t0 := time.Now(); size > 1 && j.next.Load() <= int64(i) && time.Since(t0) < time.Millisecond; {
						runtime.Gosched()
					}
					released[i].Store(true)
					j.Release(i + 1)
				}
				err = c.Finish(j)
			} else {
				for i := range released {
					released[i].Store(true)
				}
				err = c.Run(n, fn)
			}
			label := fmt.Sprintf("size %d trial %d (n=%d)", size, trial, n)
			if early.Load() != 0 {
				t.Fatalf("%s: %d slots ran before their release", label, early.Load())
			}
			for i := range calls {
				got := calls[i].Load()
				switch {
				case got > 1:
					t.Fatalf("%s: slot %d ran %d times", label, i, got)
				case got == 0 && (first < 0 || i <= first):
					t.Fatalf("%s: slot %d never ran", label, i)
				case got == 1 && size == 1 && first >= 0 && i > first:
					t.Fatalf("%s: serial crew ran slot %d past the failure at %d", label, i, first)
				}
			}
			switch {
			case first < 0 && err != nil:
				t.Fatalf("%s: unexpected error %v", label, err)
			case first >= 0 && !errors.Is(err, errAt[first]):
				t.Fatalf("%s: error %v, want slot %d's", label, err, first)
			}
		}
		c.Stop()
	}
}

// TestCrewWaitsPark pins that no wait in the crew spins for longer than
// spin: idle helpers, helpers holding a claimed but unreleased item, and
// the coordinator waiting for the last item all park — and a release or
// the last item finishing wakes them.
func TestCrewWaitsPark(t *testing.T) {
	atLeastProcs(t, 3)
	c := NewCrew(3)
	defer c.Stop()
	until := func(what string, ok func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Errorf("%s: never happened (%d parked)", what, c.sleepers.Load())
				return false
			}
		}
		return true
	}
	if !until("idle helpers park", func() bool { return c.sleepers.Load() == 2 }) {
		return
	}

	var ran [4]atomic.Int32
	gate := make(chan struct{})
	j := c.Start(4, 0, func(i int) error {
		ran[i].Add(1)
		if i == 3 {
			<-gate
		}
		return nil
	})
	// Both helpers have left the idle wait once they hold items 0 and 1.
	if !until("helpers claim", func() bool { return j.next.Load() >= 2 }) ||
		!until("helpers park on unreleased items", func() bool { return c.sleepers.Load() == 2 }) {
		j.Release(4)
		close(gate)
		return
	}
	j.Release(3)
	go func() {
		// One helper blocks in item 3, the other idles: two parked
		// members are the idle helper and the coordinator in Finish.
		until("coordinator parks in Finish", func() bool { return ran[3].Load() == 1 && c.sleepers.Load() == 2 })
		close(gate)
	}()
	if err := c.Finish(j); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("item %d ran %d times", i, got)
		}
	}
}
