package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"digamma/internal/serve"
	"digamma/internal/workload"
)

// selftestOpts collects the load-generator knobs (see the -selftest flags
// in main.go). Zero values skip the corresponding optional phase.
type selftestOpts struct {
	Target                          string
	Total, Clients, Budget, Islands int
	Warm                            bool
	Tenants, Batch                  int
	Sustain                         time.Duration
	Rate                            float64
	P95Max                          time.Duration
	BenchLines                      bool
}

// selftestMix is the request mix the load generator cycles through: four
// distinct searches, so firing N ≥ 8 requests guarantees duplicates and a
// measurable dedup hit rate (ReqBench-style mixed concurrent workload).
var selftestMix = []serve.OptimizeRequest{
	{Model: "ncf", Platform: "edge", Objective: "latency"},
	{Model: "mnasnet", Platform: "edge", Objective: "edp"},
	{Model: "ncf", Platform: "cloud", Objective: "energy"},
	{Model: "mobilenetv2", Platform: "edge", Objective: "latency", Seed: 7},
}

// runSelftest fires total requests from clients concurrent workers at the
// target server (an in-process one when target is empty), waits for every
// job to reach a terminal state, and reports throughput plus dedup rate.
// islands > 1 runs the whole mix on the K-island engine — one variant
// additionally rotates the heterogeneous profiles — so serving loadgen
// rows cover island searches too. warm adds a near-duplicate phase after
// the mix: same-layer searches under fresh seeds (shared-analysis
// traffic), half of them warm-started, with the tier's hit rate reported.
// Tenants > 0 spreads the mix across that many tenants and (at >= 2) runs
// the two-tenant contention phase; Batch submits a near-duplicate sweep
// as one POST /v1/batches; Sustain runs the open-loop SLO phase.
func runSelftest(cfg serve.Config, opts selftestOpts) error {
	target := opts.Target
	total, clients, budget, islands := opts.Total, opts.Clients, opts.Budget, opts.Islands
	inProcess := target == ""
	if inProcess {
		s, err := serve.New(cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		target = ts.URL
		fmt.Printf("selftest: in-process server at %s\n", target)
	}
	if clients < 1 {
		clients = 1
	}

	type submitResp struct {
		ID           string `json:"id"`
		State        string `json:"state"`
		Deduplicated bool   `json:"deduplicated"`
	}

	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		dedup     atomic.Int64
		errCount  atomic.Int64
		idMu      sync.Mutex
		ids       = map[string]struct{}{}
		firstErrs = make(chan error, clients)
	)
	next.Store(-1)
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= total {
					return
				}
				req := selftestMix[i%len(selftestMix)]
				req.Budget = budget
				if opts.Tenants > 0 {
					req.Tenant = fmt.Sprintf("t%d", i%opts.Tenants)
				}
				if islands > 1 {
					req.Islands = islands
					if i%len(selftestMix) == 1 {
						req.IslandProfiles = []string{"default", "explorer", "exploiter", "scout"}
					}
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(target+"/v1/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					errCount.Add(1)
					select {
					case firstErrs <- err:
					default:
					}
					continue
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
					errCount.Add(1)
					select {
					case firstErrs <- fmt.Errorf("submit: %s: %s", resp.Status, data):
					default:
					}
					continue
				}
				var sr submitResp
				if err := json.Unmarshal(data, &sr); err != nil {
					errCount.Add(1)
					continue
				}
				if sr.Deduplicated {
					dedup.Add(1)
				}
				idMu.Lock()
				ids[sr.ID] = struct{}{}
				idMu.Unlock()
			}
		}()
	}
	wg.Wait()
	submitDur := time.Since(begin)

	// Wait for every distinct job to reach a terminal state.
	deadline := time.Now().Add(5 * time.Minute)
	done := 0
	for id := range ids {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s did not finish within the selftest deadline", id)
			}
			resp, err := http.Get(target + "/v1/jobs/" + id)
			if err != nil {
				return err
			}
			var st struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if st.State == "done" || st.State == "degraded" || st.State == "failed" || st.State == "cancelled" {
				if st.State == "done" {
					done++
				}
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	totalDur := time.Since(begin)

	select {
	case err := <-firstErrs:
		fmt.Printf("selftest: first error: %v\n", err)
	default:
	}
	fmt.Printf("selftest: %d requests, %d clients, budget %d\n", total, clients, budget)
	fmt.Printf("  distinct jobs run:   %d (done %d, errors %d)\n", len(ids), done, errCount.Load())
	fmt.Printf("  dedup hits:          %d (%.0f%% of submissions)\n",
		dedup.Load(), 100*float64(dedup.Load())/float64(total))
	fmt.Printf("  submit throughput:   %.1f req/s (%.3fs)\n",
		float64(total)/submitDur.Seconds(), submitDur.Seconds())
	fmt.Printf("  end-to-end:          %.1f req/s (%.3fs for all jobs to finish)\n",
		float64(total)/totalDur.Seconds(), totalDur.Seconds())
	if errCount.Load() > 0 {
		return fmt.Errorf("%d requests failed", errCount.Load())
	}
	// Only a server this run created starts empty; a warm -target one may
	// dedup every submission against pre-existing jobs, which would make
	// this invariant read as a failure when the server is behaving.
	if inProcess && len(ids)+int(dedup.Load()) != total {
		return fmt.Errorf("accounting mismatch: %d distinct + %d dedup != %d total", len(ids), dedup.Load(), total)
	}
	if opts.Warm {
		if err := runWarmPhase(target, budget); err != nil {
			return err
		}
	}
	if opts.Batch > 1 {
		if err := runBatchPhase(target, opts.Batch, budget); err != nil {
			return err
		}
	}
	if opts.Tenants >= 2 {
		if err := runContentionPhase(target, budget); err != nil {
			return err
		}
	}
	if opts.Sustain > 0 {
		if err := runSustainedPhase(target, opts); err != nil {
			return err
		}
	}
	return verifyObservability(target, ids)
}

// submitJob POSTs one optimize request and returns the accepted job's id
// and whether it deduplicated onto an existing one.
func submitJob(target string, req serve.OptimizeRequest) (id string, dedup bool, err error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(target+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("submit: %s: %s", resp.Status, data)
	}
	var sr struct {
		ID           string `json:"id"`
		Deduplicated bool   `json:"deduplicated"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", false, err
	}
	return sr.ID, sr.Deduplicated, nil
}

// waitTerminal long-polls GET /v1/jobs/{id}?wait= until the job settles,
// returning its terminal state.
func waitTerminal(target, id string, deadline time.Time) (string, error) {
	for {
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s did not finish in time", id)
		}
		resp, err := http.Get(target + "/v1/jobs/" + id + "?wait=30s")
		if err != nil {
			return "", err
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch st.State {
		case "done", "degraded", "failed", "cancelled":
			return st.State, nil
		}
	}
}

// pct reads the q-quantile (0..1) off a sorted latency slice.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// latencyTable prints one "tenant n p50 p95 p99" row per key, sorted.
func latencyTable(lat map[string][]time.Duration) {
	tenants := make([]string, 0, len(lat))
	for t := range lat {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Printf("  %-10s %6s %10s %10s %10s\n", "tenant", "n", "p50", "p95", "p99")
	for _, t := range tenants {
		d := lat[t]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		fmt.Printf("  %-10s %6d %10s %10s %10s\n", t, len(d),
			pct(d, 0.50).Round(time.Millisecond),
			pct(d, 0.95).Round(time.Millisecond),
			pct(d, 0.99).Round(time.Millisecond))
	}
}

// runBatchPhase submits one n-item near-duplicate sweep as a single POST
// /v1/batches — shared defaults, per-item width perturbations, and a
// deliberate duplicate of the base item at the tail so the in-batch dedup
// path is exercised — then long-polls the batch endpoint to completion.
func runBatchPhase(target string, n, budget int) error {
	base := func() []workload.LayerSpec {
		return []workload.LayerSpec{
			{Name: "bfc0", Type: "gemm", K: 128, C: 256, Y: 1, X: 1, R: 1, S: 1},
			{Name: "bfc1", Type: "gemm", K: 64, C: 128, Y: 1, X: 1, R: 1, S: 1},
		}
	}
	breq := serve.BatchRequest{
		Defaults: serve.OptimizeRequest{
			Layers: base(), Platform: "edge", Objective: "latency",
			Budget: budget, Seed: 4242,
		},
		Items: make([]serve.OptimizeRequest, n),
	}
	// Item 0 and item n-1 are pure defaults (the duplicate pair); the rest
	// perturb one layer's width — the sweep signature.
	for i := 1; i < n-1; i++ {
		layers := base()
		layers[i%len(layers)].C += 4 * i
		breq.Items[i] = serve.OptimizeRequest{Layers: layers}
	}
	body, _ := json.Marshal(breq)
	begin := time.Now()
	resp, err := http.Post(target+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("batch phase: %w", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("batch phase: %s: %s", resp.Status, data)
	}
	var bst struct {
		ID           string `json:"id"`
		State        string `json:"state"`
		Total        int    `json:"total"`
		Completed    int    `json:"completed"`
		Deduplicated int    `json:"deduplicated"`
	}
	if err := json.Unmarshal(data, &bst); err != nil {
		return fmt.Errorf("batch phase: %w", err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for bst.State == "running" {
		if time.Now().After(deadline) {
			return fmt.Errorf("batch phase: batch %s did not finish in time", bst.ID)
		}
		resp, err := http.Get(target + "/v1/batches/" + bst.ID + "?wait=30s")
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&bst)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	dur := time.Since(begin)
	fmt.Printf("  batch sweep:         %d items as one submit: %d completed, %d dedup, %.3fs (%.1f items/s)\n",
		bst.Total, bst.Completed, bst.Deduplicated, dur.Seconds(), float64(bst.Total)/dur.Seconds())
	if bst.State != "done" {
		return fmt.Errorf("batch phase: batch %s finished %s", bst.ID, bst.State)
	}
	if bst.Deduplicated < 1 {
		return fmt.Errorf("batch phase: duplicate tail item was not deduplicated")
	}
	return nil
}

// runContentionPhase is the fairness leg: two tenants ("gold" and
// "silver" — 3:1 weighted on the in-process server) submit interleaved
// unique searches that saturate the worker pool, each request's
// end-to-end latency is recorded, and afterwards the per-tenant
// dispatched-eval counters and the scheduler's starvation guard are read
// off /metrics. A healthy scheduler shows zero forced dispatches.
func runContentionPhase(target string, budget int) error {
	evals0 := map[string]float64{}
	for _, tenant := range []string{"gold", "silver"} {
		v, _ := scrapeCounter(target, fmt.Sprintf("digammad_tenant_evals_total{tenant=%q}", tenant))
		evals0[tenant] = v
	}
	starved0, err := scrapeCounter(target, "digammad_sched_starvation_total")
	if err != nil {
		return fmt.Errorf("contention phase: %w", err)
	}

	const perTenant = 6
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		lat = map[string][]time.Duration{}
	)
	deadline := time.Now().Add(5 * time.Minute)
	var firstErr atomic.Value
	for i := 0; i < 2*perTenant; i++ {
		tenant := "gold"
		if i%2 == 1 {
			tenant = "silver"
		}
		req := serve.OptimizeRequest{
			Model: "ncf", Platform: "edge", Objective: "latency",
			Budget: budget, Seed: int64(5000 + i), Tenant: tenant,
		}
		wg.Add(1)
		go func(tenant string, req serve.OptimizeRequest) {
			defer wg.Done()
			begin := time.Now()
			id, _, err := submitJob(target, req)
			if err == nil {
				_, err = waitTerminal(target, id, deadline)
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			mu.Lock()
			lat[tenant] = append(lat[tenant], time.Since(begin))
			mu.Unlock()
		}(tenant, req)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return fmt.Errorf("contention phase: %w", err)
	}

	fmt.Printf("  contention phase:    %d jobs across gold and silver\n", 2*perTenant)
	latencyTable(lat)
	goldEvals, _ := scrapeCounter(target, `digammad_tenant_evals_total{tenant="gold"}`)
	silverEvals, _ := scrapeCounter(target, `digammad_tenant_evals_total{tenant="silver"}`)
	gold, silver := goldEvals-evals0["gold"], silverEvals-evals0["silver"]
	if gold+silver > 0 {
		fmt.Printf("  eval shares:         gold %.0f%% / silver %.0f%%\n",
			100*gold/(gold+silver), 100*silver/(gold+silver))
	}
	starved, err := scrapeCounter(target, "digammad_sched_starvation_total")
	if err != nil {
		return fmt.Errorf("contention phase: %w", err)
	}
	if starved != starved0 {
		return fmt.Errorf("contention phase: starvation guard fired %.0f times", starved-starved0)
	}
	fmt.Printf("  starvation guard:    0 forced dispatches\n")
	return nil
}

// runSustainedPhase is the SLO leg: an open-loop generator submits unique
// searches at opts.Rate for opts.Sustain (spread across opts.Tenants
// tenants when set), long-polling each to completion. It reports
// completed throughput and p50/p95/p99 end-to-end latency — per tenant
// when multi-tenant — and fails when p95 exceeds opts.P95Max or the
// starvation guard fired.
func runSustainedPhase(target string, opts selftestOpts) error {
	starved0, err := scrapeCounter(target, "digammad_sched_starvation_total")
	if err != nil {
		return fmt.Errorf("sustained phase: %w", err)
	}
	rate := opts.Rate
	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lat      = map[string][]time.Duration{}
		errCount atomic.Int64
		firstErr atomic.Value
	)
	begin := time.Now()
	end := begin.Add(opts.Sustain)
	deadline := end.Add(5 * time.Minute)
	submitted := 0
	for time.Now().Before(end) {
		tenant := ""
		if opts.Tenants > 0 {
			tenant = fmt.Sprintf("t%d", submitted%opts.Tenants)
		}
		req := serve.OptimizeRequest{
			Model: "ncf", Platform: "edge", Objective: "latency",
			Budget: opts.Budget, Seed: int64(9000 + submitted), Tenant: tenant,
		}
		key := tenant
		if key == "" {
			key = "default"
		}
		submitted++
		wg.Add(1)
		go func(key string, req serve.OptimizeRequest) {
			defer wg.Done()
			t0 := time.Now()
			id, _, err := submitJob(target, req)
			if err == nil {
				_, err = waitTerminal(target, id, deadline)
			}
			if err != nil {
				errCount.Add(1)
				firstErr.CompareAndSwap(nil, err)
				return
			}
			mu.Lock()
			lat[key] = append(lat[key], time.Since(t0))
			mu.Unlock()
		}(key, req)
		time.Sleep(interval)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	var all []time.Duration
	for _, d := range lat {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50, p95, p99 := pct(all, 0.50), pct(all, 0.95), pct(all, 0.99)
	fmt.Printf("  sustained phase:     %d submits over %.1fs at %.1f req/s target\n",
		submitted, elapsed.Seconds(), rate)
	fmt.Printf("  throughput:          %.1f completed/s (%d completed, %d errors)\n",
		float64(len(all))/elapsed.Seconds(), len(all), errCount.Load())
	fmt.Printf("  latency:             p50 %s  p95 %s  p99 %s\n",
		p50.Round(time.Millisecond), p95.Round(time.Millisecond), p99.Round(time.Millisecond))
	if opts.BenchLines && len(all) > 0 {
		// Go-benchmark-format row so scripts/bench.sh can fold served tail
		// latency into BENCH_core.json next to the throughput rows: ns/op
		// is the mean end-to-end latency, p95/p99 ride as custom units.
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		fmt.Printf("BenchmarkSelftestSustain/rate%g \t%8d\t%12d ns/op\t%12d p95_ns/op\t%12d p99_ns/op\n",
			rate, len(all), int64(sum)/int64(len(all)), p95.Nanoseconds(), p99.Nanoseconds())
	}
	if opts.Tenants > 0 {
		latencyTable(lat)
	}
	if n := errCount.Load(); n > 0 {
		err, _ := firstErr.Load().(error)
		return fmt.Errorf("sustained phase: %d requests failed (first: %v)", n, err)
	}
	starved, err := scrapeCounter(target, "digammad_sched_starvation_total")
	if err != nil {
		return fmt.Errorf("sustained phase: %w", err)
	}
	if starved != starved0 {
		return fmt.Errorf("sustained phase: starvation guard fired %.0f times", starved-starved0)
	}
	if opts.P95Max > 0 && p95 > opts.P95Max {
		return fmt.Errorf("sustained phase: p95 %s exceeds the %s SLO", p95, opts.P95Max)
	}
	return nil
}

// runWarmPhase is the near-duplicate leg: a base four-layer GEMM tower
// followed by requests that each perturb exactly one layer's width (the
// ReqBench near-duplicate discipline — the shape of customer-variant
// traffic), under seeds no earlier request used, so none of them dedups
// and every hit they score comes from the shared analysis tier. All but
// the first opt into warm_start, seeding from the nearest prior result.
// Completion rides one GET /v1/jobs/{id}?wait= long-poll per job instead
// of a status poll loop. Afterwards the tier's counters are scraped off
// /metrics and the hit rate reported.
func runWarmPhase(target string, budget int) error {
	const n = 8
	// Snapshot the tier before the phase: the counters are process-wide,
	// and the mix's cold searches would otherwise drown the
	// near-duplicate stream's hit rate in their misses.
	hits0, err := scrapeCounter(target, "digammad_analysis_hits_total")
	if err != nil {
		return err
	}
	misses0, err := scrapeCounter(target, "digammad_analysis_misses_total")
	if err != nil {
		return err
	}
	baseLayers := func() []workload.LayerSpec {
		return []workload.LayerSpec{
			{Name: "fc0", Type: "gemm", K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1},
			{Name: "fc1", Type: "gemm", K: 128, C: 256, Y: 1, X: 1, R: 1, S: 1},
			{Name: "fc2", Type: "gemm", K: 64, C: 128, Y: 1, X: 1, R: 1, S: 1},
			{Name: "fc3", Type: "gemm", K: 32, C: 64, Y: 1, X: 1, R: 1, S: 1},
		}
	}
	macs := func(layers []workload.LayerSpec) float64 {
		total := 0.0
		for _, l := range layers {
			total += float64(l.K) * float64(l.C)
		}
		return total
	}
	baseMacs := macs(baseLayers())
	var refFitness float64
	for i := 0; i < n; i++ {
		layers := baseLayers()
		if i > 0 {
			// Perturb one layer per request: bounded width bump on a
			// rotating layer, the near-duplicate signature.
			layers[i%len(layers)].C += 8 * i
		}
		req := serve.OptimizeRequest{
			Layers: layers, Platform: "edge", Objective: "latency",
			Budget: budget, Seed: int64(1000 + i), WarmStart: i > 0,
		}
		if i > 0 && refFitness > 0 {
			// Time-to-target: ask for a design within 5% of the base
			// request's quality, scaled by the perturbed workload's
			// compute — the full near-duplicate serving path, where a
			// warm-started search stops at its first generation boundary.
			req.Target = refFitness * 1.05 * macs(layers) / baseMacs
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(target+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm phase submit: %w", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm phase submit: %s: %s", resp.Status, data)
		}
		var sr struct {
			ID     string `json:"id"`
			State  string `json:"state"`
			Result *struct {
				Metrics struct {
					Fitness float64 `json:"fitness"`
				} `json:"metrics"`
			} `json:"result"`
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			return fmt.Errorf("warm phase submit: %w", err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for sr.State != "done" {
			if sr.State == "degraded" || sr.State == "failed" || sr.State == "cancelled" {
				return fmt.Errorf("warm phase job %s finished %s", sr.ID, sr.State)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm phase job %s did not finish in time", sr.ID)
			}
			resp, err := http.Get(target + "/v1/jobs/" + sr.ID + "?wait=30s")
			if err != nil {
				return err
			}
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		if i == 0 && sr.Result != nil {
			refFitness = sr.Result.Metrics.Fitness
		}
	}
	hits, err := scrapeCounter(target, "digammad_analysis_hits_total")
	if err != nil {
		return err
	}
	misses, err := scrapeCounter(target, "digammad_analysis_misses_total")
	if err != nil {
		return err
	}
	hits, misses = hits-hits0, misses-misses0
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * hits / (hits + misses)
	}
	fmt.Printf("  analysis tier:       %d near-duplicate requests, %.0f hits / %.0f misses (%.0f%% hit rate)\n",
		n, hits, misses, rate)
	return nil
}

// scrapeCounter reads one scalar series off the target's /metrics.
func scrapeCounter(target, name string) (float64, error) {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("scraping %s: %w", name, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range bytes.Split(data, []byte("\n")) {
		var v float64
		if _, err := fmt.Sscanf(string(line), name+" %g", &v); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no %s series (shared analysis disabled on target?)", name)
}

// verifyObservability is the loadgen's telemetry smoke: after the mix
// completes it scrapes /metrics and pulls one job's /trace and /report,
// checking each parses into the documented shape. Tracing disabled
// (-trace-spans < 0) legitimately 404s the per-job endpoints; that is
// reported, not failed.
func verifyObservability(target string, ids map[string]struct{}) error {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return fmt.Errorf("observability: metrics scrape: %w", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("# TYPE digammad_build_info gauge")) {
		return fmt.Errorf("observability: /metrics missing digammad_build_info")
	}
	if !bytes.Contains(metrics, []byte("# TYPE digammad_search_latency_seconds histogram")) {
		return fmt.Errorf("observability: /metrics missing the search-latency histogram")
	}

	var id string
	for id = range ids {
		break
	}
	if id == "" {
		return nil
	}
	resp, err = http.Get(target + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return fmt.Errorf("observability: trace fetch: %w", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fmt.Printf("  observability:       tracing disabled on target, skipping /trace and /report\n")
		return nil
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		return fmt.Errorf("observability: job %s trace invalid (%d events, err %v)", id, len(trace.TraceEvents), err)
	}

	resp, err = http.Get(target + "/v1/jobs/" + id + "/report")
	if err != nil {
		return fmt.Errorf("observability: report fetch: %w", err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep struct {
		Search struct {
			SearchSeconds float64           `json:"search_seconds"`
			Phases        []json.RawMessage `json:"phases"`
		} `json:"search"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Search.Phases) == 0 {
		return fmt.Errorf("observability: job %s report invalid (%d phases, err %v): %s", id, len(rep.Search.Phases), err, data)
	}
	fmt.Printf("  observability:       %d trace events, %d report phases, %.3fs search span (job %s)\n",
		len(trace.TraceEvents), len(rep.Search.Phases), rep.Search.SearchSeconds, id)
	return nil
}
