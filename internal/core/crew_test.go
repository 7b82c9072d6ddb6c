package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/space"
)

// atLeastProcs raises GOMAXPROCS to n for the test, so a Workers=n run
// gets its full crew — helpers racing the coordinator — even on a host
// with fewer CPUs.
func atLeastProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), n))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sameRun compares everything a search returns that the crew could
// disturb: best genome and fitness, history and the sample accounting.
func sameRun(t *testing.T, label string, want, got *Result) {
	t.Helper()
	compareResumed(t, label, want, got)
	if got.LayersReused != want.LayersReused || got.PoolGets != want.PoolGets || got.PoolReuses != want.PoolReuses {
		t.Errorf("%s: reused/pool gets/reuses %d/%d/%d, want %d/%d/%d", label,
			got.LayersReused, got.PoolGets, got.PoolReuses, want.LayersReused, want.PoolGets, want.PoolReuses)
	}
}

// TestCrewBitIdentical pins the overlapped single-population generation:
// breeding child by child while helpers evaluate must leave the search
// exactly where the serial engine leaves it, under every knob that
// changes what a batch does — the pruning screen, full re-scoring,
// warm start with a time-to-target stop, and fixed-HW (GAMMA) mode — and
// across a checkpoint taken and resumed with a crew.
func TestCrewBitIdentical(t *testing.T) {
	atLeastProcs(t, 4)
	const budget = 480
	zoo := func(model string) func(t *testing.T) *coopt.Problem {
		return func(t *testing.T) *coopt.Problem { return zooProblem(t, model) }
	}
	gamma := func(t *testing.T) *coopt.Problem {
		fp, err := zooProblem(t, "resnet18").WithFixedHW(arch.HW{Fanouts: []int{16, 8}, BufBytes: []int64{8 << 10, 1 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	run := func(t *testing.T, problem func(*testing.T) *coopt.Problem, base Config, workers int) *Result {
		t.Helper()
		cfg := base
		cfg.Workers = workers
		e, err := NewSeeded(problem(t), cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Warm-start from a short run's best, and stop halfway between it and
	// what a full cold run reaches: the stop fires mid-run.
	short, err := NewSeeded(zooProblem(t, "ncf"), DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := short.Run(80)
	if err != nil {
		t.Fatal(err)
	}
	cold := run(t, zoo("ncf"), DefaultConfig(), 1)
	warm := DefaultConfig()
	warm.Warm = []space.Genome{prior.Best.Genome}
	warm.Target = (prior.Best.Fitness + cold.Best.Fitness) / 2
	prune, noDelta := DefaultConfig(), DefaultConfig()
	prune.Prune = true
	noDelta.NoDelta = true
	cases := []struct {
		name    string
		problem func(*testing.T) *coopt.Problem
		cfg     Config
	}{
		{"prune", zoo("resnet18"), prune},
		{"nodelta", zoo("resnet18"), noDelta},
		{"warm+target", zoo("ncf"), warm},
		{"gamma", gamma, GammaConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := run(t, tc.problem, tc.cfg, 1)
			if tc.cfg.Target > 0 && want.Samples >= budget {
				t.Fatalf("target %g never reached: the case would not cover the stop", tc.cfg.Target)
			}
			for _, workers := range []int{2, 4} {
				sameRun(t, fmt.Sprintf("workers=%d", workers), want, run(t, tc.problem, tc.cfg, workers))
			}
		})
	}

	t.Run("resume", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 3
		want := run(t, zoo("resnet18"), cfg, 1)
		cfg.Workers = 2
		e, err := NewSeeded(zooProblem(t, "resnet18"), cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		var cks []*Checkpoint
		e.OnCheckpoint = func(ck *Checkpoint) { cks = append(cks, ck) }
		if _, err := e.Run(budget); err != nil {
			t.Fatal(err)
		}
		if len(cks) < 2 {
			t.Fatalf("%d checkpoints, want several", len(cks))
		}
		for _, ck := range cks[1:] {
			re, err := NewSeeded(zooProblem(t, "resnet18"), cfg, 5)
			if err != nil {
				t.Fatal(err)
			}
			re.Resume = ck
			got, err := re.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			compareResumed(t, fmt.Sprintf("resumed@gen %d", ck.Generations), want, got)
		}
	})
}

// TestCrewGoroutinesReleased pins the crew's lifetime: whichever way a run
// ends — completed, cancelled, cancelled under BestEffort, or failing
// after the crew started — its helpers have left by the time RunContext
// returns.
func TestCrewGoroutinesReleased(t *testing.T) {
	atLeastProcs(t, 4)
	engine := func(t *testing.T, mutate func(*Config)) *Engine {
		return seededEngine(t, "ncf", 2, func(c *Config) {
			c.Workers = 4
			if mutate != nil {
				mutate(c)
			}
		})
	}
	cancelAt := func(e *Engine, cancel context.CancelFunc) {
		e.OnGeneration = func(p Progress) {
			if p.Generation == 2 {
				cancel()
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"completed", func(t *testing.T) error {
			_, err := engine(t, nil).Run(400)
			return err
		}},
		{"cancelled", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := engine(t, nil)
			cancelAt(e, cancel)
			if _, err := e.RunContext(ctx, 100000); !errors.Is(err, ErrCancelled) {
				return fmt.Errorf("err = %v, want ErrCancelled", err)
			}
			return nil
		}},
		{"besteffort", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := engine(t, func(c *Config) { c.BestEffort = true })
			cancelAt(e, cancel)
			if res, err := e.RunContext(ctx, 100000); !errors.Is(err, ErrCancelled) || res == nil {
				return fmt.Errorf("err = %v, result %v: want ErrCancelled with a partial result", err, res)
			}
			return nil
		}},
		{"islands", func(t *testing.T) error {
			_, err := engine(t, func(c *Config) { c.Islands = 3 }).Run(400)
			return err
		}},
		{"failing", func(t *testing.T) error {
			// The checkpoint belongs to a 400-sample run: restore refuses
			// it after the crew is up.
			var ck *Checkpoint
			src := engine(t, func(c *Config) { c.CheckpointEvery = 2 })
			src.OnCheckpoint = func(c *Checkpoint) { ck = c }
			if _, err := src.Run(400); err != nil || ck == nil {
				return fmt.Errorf("checkpointed run: err %v, checkpoint %v", err, ck)
			}
			e := engine(t, func(c *Config) { c.CheckpointEvery = 2 })
			e.Resume = ck
			if _, err := e.Run(500); err == nil {
				return errors.New("mismatched resume succeeded")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := tc.run(t); err != nil {
				t.Fatal(err)
			}
			// A helper has signalled done just before it returns; give the
			// runtime a moment to retire it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
