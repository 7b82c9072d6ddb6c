// Package serve is digammad's HTTP co-optimization service: a JSON API in
// front of the digamma search engines with a bounded job queue, a worker
// pool, an in-memory result store keyed by a canonical request hash (so
// duplicate requests run once and repeats are served from cache), per-job
// Server-Sent-Event progress streams, cooperative cancellation, and a
// Prometheus-style metrics endpoint.
//
// Endpoints:
//
//	POST   /v1/optimize         submit a search (model name or inline layers)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status + result when done
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/jobs/{id}/events SSE progress stream until a terminal state
//	GET    /v1/models           built-in model zoo discovery
//	GET    /v1/platforms        deployment-target discovery
//	GET    /healthz             liveness + queue snapshot
//	GET    /metrics             queue depth, jobs by state, evalcache hit
//	                            rate, p50/p95 search latency
//
// Completed results are bit-identical to calling digamma.Optimize directly
// with the same request: the service only adds scheduling, cancellation
// and observability around the deterministic engines.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"digamma"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// OptimizeRequest is the POST /v1/optimize body. Exactly one of Model
// (a built-in zoo name, see GET /v1/models) or Layers (an inline workload
// in the JSON layer format) must be set. Unset fields default like
// digamma.Options: platform edge, objective latency, algorithm DiGamma,
// budget 2000, seed 1.
type OptimizeRequest struct {
	Model  string               `json:"model,omitempty"`
	Layers []workload.LayerSpec `json:"layers,omitempty"`
	// Tenant names the submitting tenant for fair scheduling and
	// per-tenant admission control (the X-Digamma-Tenant header fills it
	// when the body leaves it empty; empty means the default tenant, so
	// legacy traffic schedules exactly as before). Deliberately excluded
	// from the dedup hash: a search's result is independent of who asked
	// for it, so identical specs dedup across tenants.
	Tenant string `json:"tenant,omitempty"`
	// ModelName labels an inline-layer workload in reports ("inline"
	// when empty). Ignored when Model is set.
	ModelName string `json:"model_name,omitempty"`
	Platform  string `json:"platform,omitempty"`  // "edge" or "cloud"
	Objective string `json:"objective,omitempty"` // latency, energy, edp, latency-area
	Algorithm string `json:"algorithm,omitempty"` // see digamma.Algorithms()
	Budget    int    `json:"budget,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// Fidelity selects the cost-model tier (see digamma.Fidelities()):
	// "analytical" (default), "physical" or "bound". Fitness-relevant,
	// so it participates in the dedup hash.
	Fidelity string `json:"fidelity,omitempty"`
	// Prune enables bound-based pruning inside DiGamma searches. It can
	// change which design point a search returns (see core.Config.Prune),
	// so it participates in the dedup hash.
	Prune bool `json:"prune,omitempty"`
	// Islands splits the genetic search into K semi-isolated populations
	// with deterministic ring migration (see digamma.Options.Islands).
	// Fitness-relevant, so it participates in the dedup hash; ≤ 1 runs
	// the classic single population.
	Islands int `json:"islands,omitempty"`
	// MigrateEvery is the island elite-migration period in generations
	// (0 = the engine default). In the dedup hash.
	MigrateEvery int `json:"migrate_every,omitempty"`
	// IslandProfiles assigns per-island operator profiles by name (see
	// digamma.IslandProfiles()). In the dedup hash.
	IslandProfiles []string `json:"island_profiles,omitempty"`
	// WarmStart seeds one island's initial population from the nearest
	// prior result in the server's shared analysis store (by per-layer
	// content-hash overlap). Unlike pure cache sharing it changes the
	// search trajectory — the result depends on what the server ran
	// before — so it is opt-in and participates in the dedup hash.
	// Ignored when the shared tier is disabled.
	WarmStart bool `json:"warm_start,omitempty"`
	// Target, when > 0, stops the search at the first generation whose
	// best valid design reaches fitness ≤ Target instead of spending the
	// whole budget (time-to-target mode, see digamma.Options.Target; the
	// scale is the objective's — cycles for latency). Budget-truncating,
	// so it participates in the dedup hash.
	Target float64 `json:"target,omitempty"`
	// Workers bounds the search's crew: the search goroutine plus
	// Workers−1 helpers evaluating its design points (0 = the job's share
	// of the cores: GOMAXPROCS over the searches running or queued when it
	// starts, at most Config.Workers, at least 1 core each).
	// Deliberately excluded from the dedup hash: results are
	// bit-identical at any setting.
	Workers int `json:"workers,omitempty"`
}

// errBadRequest marks normalization failures the HTTP layer maps to 400.
var errBadRequest = errors.New("bad request")

// DefaultTenant is the tenant legacy (tenant-less) traffic schedules
// under.
const DefaultTenant = "default"

// TenantHeader carries the tenant name when the request body doesn't.
const TenantHeader = "X-Digamma-Tenant"

// searchSpec is a fully resolved, validated request: everything a worker
// needs to run the search, plus the canonical hash dedup keys on.
type searchSpec struct {
	req      OptimizeRequest // normalized (defaults applied)
	model    digamma.Model
	platform digamma.Platform
	opts     digamma.Options
	hash     string
}

// buildSpec normalizes and validates a request. All errors wrap
// errBadRequest — nothing past this point is the client's fault.
// maxBudget (> 0) caps the sampling budget so huge-budget requests
// cannot occupy workers indefinitely.
func buildSpec(req OptimizeRequest, maxBudget int) (*searchSpec, error) {
	if req.Platform == "" {
		req.Platform = "edge"
	}
	if req.Objective == "" {
		req.Objective = "latency"
	}
	if req.Algorithm == "" {
		req.Algorithm = "DiGamma"
	}
	if req.Budget <= 0 {
		req.Budget = 2000
	}
	if maxBudget > 0 && req.Budget > maxBudget {
		return nil, fmt.Errorf("%w: budget %d exceeds this server's cap of %d", errBadRequest, req.Budget, maxBudget)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Fidelity == "" {
		req.Fidelity = "analytical"
	}
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}

	var model digamma.Model
	var err error
	switch {
	case req.Model != "" && len(req.Layers) > 0:
		return nil, fmt.Errorf("%w: request sets both model %q and inline layers; pick one", errBadRequest, req.Model)
	case req.Model != "":
		if model, err = digamma.LoadModel(req.Model); err != nil {
			return nil, fmt.Errorf("%w: %w", errBadRequest, err)
		}
	case len(req.Layers) > 0:
		name := req.ModelName
		if name == "" {
			name = "inline"
		}
		if model, err = workload.FromSpecs(name, req.Layers); err != nil {
			return nil, fmt.Errorf("%w: %w", errBadRequest, err)
		}
	default:
		return nil, fmt.Errorf("%w: request needs a model name or inline layers", errBadRequest)
	}

	var platform digamma.Platform
	switch req.Platform {
	case "edge":
		platform = digamma.EdgePlatform()
	case "cloud":
		platform = digamma.CloudPlatform()
	default:
		return nil, fmt.Errorf("%w: unknown platform %q (want edge or cloud)", errBadRequest, req.Platform)
	}

	obj, err := coopt.ParseObjective(req.Objective)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBadRequest, err)
	}
	opts := digamma.Options{
		Budget:         req.Budget,
		Seed:           req.Seed,
		Objective:      obj,
		Algorithm:      req.Algorithm,
		Workers:        req.Workers,
		Fidelity:       req.Fidelity,
		Prune:          req.Prune,
		Islands:        req.Islands,
		MigrateEvery:   req.MigrateEvery,
		IslandProfiles: req.IslandProfiles,
		WarmStart:      req.WarmStart,
		Target:         req.Target,
	}
	// Typed facade validation (ErrUnknownAlgorithm / ErrUnknownObjective)
	// happens here, at submit time, not deep inside a queued search.
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadRequest, err)
	}

	return &searchSpec{
		req:      req,
		model:    model,
		platform: platform,
		opts:     opts,
		hash:     requestHash(model, req),
	}, nil
}

// requestHash produces the canonical dedup key: a digest over every
// fitness-relevant request field — the resolved layer list (so an inline
// copy of a zoo model dedups against the zoo name), platform, objective,
// algorithm, budget, seed, fidelity tier, the prune switch and the island
// configuration (count, migration period, profile rotation — the knobs a
// K-island search's result is a function of), the warm-start switch
// (warm runs depend on the server's prior traffic, so they must never
// dedup against cold ones) and the time-to-target threshold (it truncates
// the budget). Each field occupies its own
// '|'-delimited, newline-terminated slot of a versioned layout — the
// profile list is additionally length-prefixed so a profile name can
// never absorb a neighbouring slot — so two requests differing in any
// single field can never collide (TestRequestHashFieldSensitivity audits
// this). Workers is excluded (results are bit-identical at any worker
// count), as is the model's display name.
func requestHash(model digamma.Model, req OptimizeRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "v4|%s|%s|%s|%d|%d|%s|%t|%d|%d|%t|%g\n",
		req.Platform, req.Objective, req.Algorithm, req.Budget, req.Seed, req.Fidelity, req.Prune,
		req.Islands, req.MigrateEvery, req.WarmStart, req.Target)
	fmt.Fprintf(h, "profiles|%d", len(req.IslandProfiles))
	for _, name := range req.IslandProfiles {
		fmt.Fprintf(h, "|%d:%s", len(name), name)
	}
	fmt.Fprintln(h)
	for _, l := range model.Layers {
		sy, sx := l.Strides()
		fmt.Fprintf(h, "%s|%s|%d,%d,%d,%d,%d,%d|%d,%d|%d\n",
			l.Name, l.Type, l.K, l.C, l.Y, l.X, l.R, l.S, sy, sx, l.Multiplicity())
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
