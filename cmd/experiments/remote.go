package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"digamma/internal/arch"
	"digamma/internal/figures"
	"digamma/internal/serve"
	"digamma/internal/tables"
	"digamma/internal/workload"
)

// sweepWait is the long-poll window of each GET /v1/batches/{id}; the
// server caps it at its own -wait-cap and answers early on completion.
const sweepWait = 30 * time.Second

// runSweep runs the model×seed DiGamma grid on a digammad: per platform,
// the whole grid goes up as one POST /v1/batches (one admission, one WAL
// append, per-item dedup), the batch is long-polled to completion, and
// the best latency of every cell is rendered as one table per platform
// (rows = models, columns = seeds opts.Seed … opts.Seed+seeds-1). Results
// equal local digamma.Optimize runs with the same options, so the table
// is reproducible from the seed alone.
func runSweep(w io.Writer, server string, platforms []arch.Platform, opts figures.Options, seeds int, csv bool) error {
	if server == "" {
		return errors.New("sweep needs -server (base URL of a running digammad)")
	}
	if seeds < 1 {
		return fmt.Errorf("sweep needs -seeds >= 1, got %d", seeds)
	}
	models := opts.Models
	if len(models) == 0 {
		models = workload.ModelNames
	}
	cols := make([]string, seeds)
	for s := range cols {
		cols[s] = fmt.Sprintf("seed %d", opts.Seed+int64(s))
	}
	server = strings.TrimRight(server, "/")
	client := &http.Client{Timeout: sweepWait + 30*time.Second}
	for _, p := range platforms {
		req := serve.BatchRequest{
			Defaults: serve.OptimizeRequest{
				Platform: p.Name, Budget: opts.Budget, Fidelity: opts.Fidelity, Prune: opts.Prune,
				Islands: opts.Islands, MigrateEvery: opts.MigrateEvery, IslandProfiles: opts.IslandProfiles,
			},
		}
		for _, m := range models {
			for s := range seeds {
				req.Items = append(req.Items, serve.OptimizeRequest{Model: m, Seed: opts.Seed + int64(s)})
			}
		}
		var st serve.BatchStatus
		if err := sweepCall(client, http.MethodPost, server+"/v1/batches", req, http.StatusAccepted, &st); err != nil {
			return fmt.Errorf("%s: submit: %w", p.Name, err)
		}
		for st.State != serve.StateDone {
			url := fmt.Sprintf("%s/v1/batches/%s?wait=%s", server, st.ID, sweepWait)
			if err := sweepCall(client, http.MethodGet, url, nil, http.StatusOK, &st); err != nil {
				return fmt.Errorf("%s: batch %s: %w", p.Name, st.ID, err)
			}
		}
		if len(st.Items) != len(req.Items) {
			return fmt.Errorf("%s: batch %s has %d items, submitted %d", p.Name, st.ID, len(st.Items), len(req.Items))
		}
		tb := tables.NewTable(fmt.Sprintf("Sweep (%s): DiGamma best latency in cycles, budget %d, served by digammad",
			p.Name, opts.Budget), cols...)
		for mi, m := range models {
			row := make([]float64, seeds)
			for s := range row {
				it := st.Items[mi*seeds+s]
				if it.State != serve.StateDone || it.Result == nil {
					return fmt.Errorf("%s: %s seed %d: job %s ended %s %s", p.Name, m, it.Seed, it.ID, it.State, it.Error)
				}
				row[s] = it.Result.Metrics.Cycles
			}
			tb.SetRow(m, row)
		}
		tb.AddGeoMeanRow()
		if csv {
			fmt.Fprintln(w, tb.CSV())
		} else {
			fmt.Fprintln(w, tb.Render())
		}
	}
	return nil
}

// sweepCall sends one JSON request (body may be nil) and decodes the
// response into out, turning any status other than want into an error
// carrying the server's reply.
func sweepCall(c *http.Client, method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		// The body only decorates the error; a failed read leaves it short.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
	}
	return nil
}
