package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"digamma"
	"digamma/internal/arch"
	"digamma/internal/figures"
	"digamma/internal/serve"
	"digamma/internal/tables"
)

// TestRunSweepMatchesLocal drives the sweep against an in-memory digammad
// and checks every cell against a local digamma.Optimize with the same
// options: the batch path must add scheduling, never change results.
func TestRunSweepMatchesLocal(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	models := []string{"ncf", "mnasnet"}
	opts := figures.Options{Budget: 60, Seed: 3, Models: models}
	const seeds = 2
	var out bytes.Buffer
	if err := runSweep(&out, ts.URL+"/", []arch.Platform{arch.Edge(), arch.Cloud()}, opts, seeds, true); err != nil {
		t.Fatal(err)
	}

	tablesOut := strings.Split(strings.TrimSpace(out.String()), "\n\n")
	if len(tablesOut) != 2 {
		t.Fatalf("want one table per platform, got %d:\n%s", len(tablesOut), out.String())
	}
	for pi, p := range []digamma.Platform{digamma.EdgePlatform(), digamma.CloudPlatform()} {
		lines := strings.Split(tablesOut[pi], "\n")
		if want := "row,seed 3,seed 4"; lines[0] != want {
			t.Fatalf("%s header %q, want %q", p.Name, lines[0], want)
		}
		if len(lines) != 1+len(models)+1 || !strings.HasPrefix(lines[len(lines)-1], "GeoMean,") {
			t.Fatalf("%s: want %d model rows plus GeoMean:\n%s", p.Name, len(models), tablesOut[pi])
		}
		for mi, name := range models {
			model, err := digamma.LoadModel(name)
			if err != nil {
				t.Fatal(err)
			}
			cells := []string{name}
			for s := range seeds {
				ev, err := digamma.Optimize(model, p, digamma.Options{Budget: opts.Budget, Seed: opts.Seed + int64(s)})
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, tables.Cell(ev.Cycles))
			}
			if got, want := lines[1+mi], strings.Join(cells, ","); got != want {
				t.Errorf("%s row %q, local runs give %q", p.Name, got, want)
			}
		}
	}
}

// TestRunSweepErrors: a missing server is a usage error, and a server
// rejecting the batch surfaces its message.
func TestRunSweepErrors(t *testing.T) {
	opts := figures.Options{Budget: 60, Seed: 1, Models: []string{"ncf"}}
	edge := []arch.Platform{arch.Edge()}
	if err := runSweep(&bytes.Buffer{}, "", edge, opts, 1, false); err == nil {
		t.Error("empty -server accepted")
	}
	s, err := serve.New(serve.Config{Workers: 1, MaxBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	err = runSweep(&bytes.Buffer{}, ts.URL, edge, opts, 1, false)
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("over-budget batch: err %v, want an HTTP 400", err)
	}
}
