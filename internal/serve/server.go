package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"digamma"
	"digamma/internal/cost"
	"digamma/internal/faults"
	"digamma/internal/obs"
	"digamma/internal/workload"
)

// Config sizes the service.
type Config struct {
	// Workers sizes the job worker pool — how many searches run
	// concurrently. Each search additionally parallelizes its own
	// breeding and evaluation per its request's Workers option; a request
	// that leaves it 0 gets GOMAXPROCS divided by the searches running or
	// queued when it starts (at most Workers, at least one core each): a
	// job that starts alone gets every core, and concurrent jobs split
	// them instead of contending for them. 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; submits
	// beyond it are rejected with 503 rather than queued unboundedly.
	// 0 = 256.
	QueueDepth int
	// StoreLimit caps retained terminal jobs; the oldest-finished are
	// evicted (and stop serving dedup hits). 0 = 1024.
	StoreLimit int
	// MaxBudget caps a request's sampling budget (HTTP 400 above it), so
	// a handful of huge-budget submissions cannot occupy every worker
	// indefinitely. 0 = 1,000,000 (25× the paper's 40K protocol).
	MaxBudget int
	// Store persists accepted jobs, results and checkpoints so a crash or
	// redeploy loses no work (see Store). nil = no durability — the
	// in-memory-only behaviour of earlier trees.
	Store Store
	// CheckpointEvery, when > 0 with a Store configured, checkpoints every
	// running search every that-many generations (and at the drain
	// boundary), so recovery resumes mid-search instead of restarting.
	CheckpointEvery int
	// JobDeadline, when > 0, bounds each job's search wall-clock. A job
	// that exceeds it finishes as "degraded" carrying the best design
	// point found in time — a partial result, excluded from dedup.
	JobDeadline time.Duration
	// Analysis is the server's shared analysis tier: every job's search
	// reads and feeds it, so near-duplicate requests recover per-layer
	// cost-model analyses computed by earlier jobs. Pure cache sharing —
	// results stay bit-identical to a cold search. Pass a disk-backed
	// store (digamma.OpenAnalysisStore) to keep the warm tier across
	// restarts. nil = a fresh memory-only store, unless NoSharedAnalysis.
	Analysis *digamma.AnalysisStore
	// NoSharedAnalysis disables the shared analysis tier entirely: each
	// job then caches analyses only within its own search.
	NoSharedAnalysis bool
	// Faults arms the deterministic fault-injection harness (tests only;
	// nil in production). Points: "worker.run" plus the Store points.
	Faults *faults.Injector
	// TenantWeights assigns deficit-round-robin weights per tenant name
	// (see scheduler): a weight-3 tenant is dispatched three eval-quanta
	// per rotation for every one a weight-1 tenant gets. Tenants absent
	// from the map weigh 1, so the empty map is exact fair sharing.
	TenantWeights map[string]int
	// TenantJobCap bounds one tenant's queued+running jobs; a submit past
	// it gets 429 with Retry-After while the service still has global
	// headroom. 0 = unlimited (legacy behaviour).
	TenantJobCap int
	// TenantJobCaps overrides TenantJobCap for specific tenants. An
	// override wins even at 0 (that tenant becomes unlimited while the
	// default keeps binding everyone else).
	TenantJobCaps map[string]int
	// TenantBudgetCap bounds one tenant's outstanding evaluation budget —
	// the summed sampling budgets of its queued and running jobs (≈
	// in-flight evals). 0 = unlimited.
	TenantBudgetCap int
	// TenantBudgetCaps overrides TenantBudgetCap per tenant, with the same
	// override-wins-even-at-0 rule as TenantJobCaps.
	TenantBudgetCaps map[string]int
	// SchedQuantum is the evals-per-weight-unit replenished each
	// scheduling rotation (the fairness granularity: a saturating tenant
	// can delay another by at most one rotation of quanta). 0 = 2000.
	SchedQuantum int
	// WaitCap caps ?wait= long-polls on job and batch status endpoints so
	// a client typo cannot pin a handler goroutine indefinitely; an
	// expired window returns the current (possibly non-terminal) status
	// with 200. 0 = 30s.
	WaitCap time.Duration
	// MaxBatchItems caps POST /v1/batches item counts (400 above it).
	// 0 = 256.
	MaxBatchItems int
	// MaxTenantSeries caps the distinct tenant label values the /metrics
	// exposition will mint; tenants beyond the cap aggregate into the
	// "_overflow" label, so tenant-name churn cannot grow the scrape
	// without bound. 0 = 32.
	MaxTenantSeries int
	// TraceSpans sizes each job's flight recorder (the per-job bounded
	// span ring exported via /v1/jobs/{id}/trace and summarized by
	// /v1/jobs/{id}/report). 0 = obs.DefaultSpanCap; negative disables
	// per-job tracing entirely (jobs then run the engine's zero-cost
	// disabled path and serve 404 on trace/report).
	TraceSpans int
	// Log receives the server's structured logs (job lifecycle, drain,
	// recovery, store errors). nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.StoreLimit <= 0 {
		c.StoreLimit = 1024
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 1_000_000
	}
	if c.SchedQuantum <= 0 {
		c.SchedQuantum = defaultQuantum
	}
	if c.WaitCap <= 0 {
		c.WaitCap = 30 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxTenantSeries <= 0 {
		c.MaxTenantSeries = 32
	}
	return c
}

// Server is the digammad service: job store, dedup index, bounded queue,
// worker pool and HTTP handlers. Create with New, expose via Handler,
// shut down with Close.
//
// The queue is the tenant-keyed deficit-round-robin scheduler (see
// scheduler in sched.go) rather than a buffered channel so a job
// cancelled while queued frees its slot immediately and tenants share
// workers by weight instead of head-of-line order. Lock order where held
// together: mu → sched.mu → Job.mu.
type Server struct {
	cfg Config

	sched *scheduler

	mu        sync.Mutex
	jobs      map[string]*Job
	byHash    map[string]*Job
	finished  []string // terminal job IDs in finish order, for eviction
	seq       uint64
	batches   map[string]*Batch
	bfinished []string // terminal batch IDs in finish order, for eviction
	bseq      uint64

	store    Store
	analysis *digamma.AnalysisStore // shared evaluation tier; nil when disabled
	draining atomic.Bool
	running  atomic.Int32 // jobs inside runJob

	started            time.Time
	submitted          atomic.Uint64
	dedupHits          atomic.Uint64
	rejected           atomic.Uint64
	cacheHits          atomic.Uint64
	cacheMisses        atomic.Uint64
	deltaEvals         atomic.Uint64
	layersReused       atomic.Uint64
	poolGets           atomic.Uint64
	poolReuses         atomic.Uint64
	jobsRecovered      atomic.Uint64
	checkpointsWritten atomic.Uint64
	panicsRecovered    atomic.Uint64
	jobsDegraded       atomic.Uint64
	storeErrors        atomic.Uint64

	latMu     sync.Mutex
	latencies []float64 // ring of recent completed-search wall-clock seconds
	latHead   int       // next slot to overwrite once the ring is full

	// Cumulative histograms behind /metrics, keyed by their one label
	// value. The key sets are fixed at construction (every backend, every
	// engine phase, every store op), so scrapes always see the same
	// series — no label churn as traffic shifts.
	latHist   map[string]*obs.Histogram // by cost-model backend ("fidelity")
	phaseHist map[string]*obs.Histogram // by engine phase
	ioHist    map[string]*obs.Histogram // by store I/O op

	// tenantStats is the bounded-cardinality per-tenant metrics registry
	// (rejections, completed evals, queue-wait histogram by tenant label).
	tenantStats *tenantRegistry

	log *slog.Logger

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a server, replays the store's recovery records (persisted
// results re-serve status and dedup hits; incomplete jobs re-enqueue,
// resuming from their latest checkpoint) and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		sched: newScheduler(cfg.QueueDepth,
			tenantCap{def: cfg.TenantJobCap, per: cfg.TenantJobCaps},
			tenantCap{def: cfg.TenantBudgetCap, per: cfg.TenantBudgetCaps},
			cfg.SchedQuantum, cfg.TenantWeights),
		store:   cfg.Store,
		jobs:    make(map[string]*Job),
		byHash:  make(map[string]*Job),
		batches: make(map[string]*Batch),
		started: time.Now(),
		log:     cfg.Log,
		baseCtx: ctx,
		stop:    stop,
	}
	s.tenantStats = newTenantRegistry(cfg.MaxTenantSeries, cfg.TenantWeights)
	if s.store == nil {
		s.store = nullStore{}
	}
	if s.analysis = cfg.Analysis; s.analysis == nil && !cfg.NoSharedAnalysis {
		s.analysis = digamma.NewAnalysisStore()
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.latHist = make(map[string]*obs.Histogram, len(cost.BackendNames))
	for _, b := range cost.BackendNames {
		s.latHist[b] = obs.NewHistogram(obs.LatencyBuckets())
	}
	s.phaseHist = make(map[string]*obs.Histogram)
	for _, p := range []string{obs.PhaseInit, obs.PhaseBreed, obs.PhaseEvaluate, obs.PhaseMigrate, obs.PhaseRescore, obs.PhaseCkpt, obs.PhaseFinalize} {
		s.phaseHist[p] = obs.NewHistogram(obs.PhaseBuckets())
	}
	s.ioHist = make(map[string]*obs.Histogram)
	for _, op := range []string{obs.IOWALAppend, obs.IOCkptSave, obs.IOResult, obs.IOReport} {
		s.ioHist[op] = obs.NewHistogram(obs.IOBuckets())
	}
	if err := s.recoverJobs(); err != nil {
		stop()
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJobs rebuilds the job store from persisted state before any
// worker or handler runs (so no locking is needed): terminal jobs come
// back with their persisted status, result report and dedup entry;
// incomplete jobs re-enter the queue carrying their latest checkpoint.
func (s *Server) recoverJobs() error {
	recs, err := s.store.Recover()
	if err != nil {
		return fmt.Errorf("serve: recovering store: %w", err)
	}
	for _, rj := range recs {
		if rj.Record.Dedup {
			// A batch member deduplicated onto a job accepted earlier: no
			// job of its own to rebuild (recoverBatches resolves the
			// reference against the target's record).
			continue
		}
		spec, err := buildSpec(rj.Record.Req, s.cfg.MaxBudget)
		if err != nil {
			// The request is no longer valid under this server's limits or
			// model zoo; recovery drops it rather than wedging startup.
			continue
		}
		job := newJob(rj.Record.ID, spec)
		job.recovered = true
		if !rj.Record.CreatedAt.IsZero() {
			job.created = rj.Record.CreatedAt
		}
		var n uint64
		if _, err := fmt.Sscanf(rj.Record.ID, "j%06d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[job.ID] = job
		if rj.Terminal != nil {
			job.restoreTerminal(rj.Terminal)
			s.finished = append(s.finished, job.ID)
			// Only full, successful results serve dedup hits again;
			// degraded results are partial, and failed/cancelled never
			// blocked a retry.
			if rj.Terminal.State == StateDone {
				s.byHash[job.Hash] = job
			}
		} else {
			// Only re-run jobs get a flight recorder: a terminal-restored
			// job's recorder died with the process (its persisted report
			// still serves; /trace reports the recorder as gone).
			job.trace = s.newTracer()
			job.resume = rj.Resume
			s.byHash[job.Hash] = job
			// force: the WAL promised these jobs; capacity was checked when
			// they were first accepted.
			s.sched.enqueue(job, true)
			s.jobsRecovered.Add(1)
			s.jobLog(job).Info("job recovered", "resuming", job.resume != nil)
		}
	}
	s.recoverBatches(recs)
	if n := len(recs); n > 0 {
		s.log.Info("store recovery complete", "records", n, "requeued", s.jobsRecovered.Load())
	}
	return nil
}

// newTracer builds one job's flight recorder per Config.TraceSpans
// (nil = tracing disabled: the engine runs its zero-cost path).
func (s *Server) newTracer() *obs.Tracer {
	if s.cfg.TraceSpans < 0 {
		return nil
	}
	return obs.NewTracer(s.cfg.TraceSpans)
}

// jobLog returns the job-scoped logger: every line carries the job id and
// canonical request hash, so one grep correlates a request with its
// search.
func (s *Server) jobLog(j *Job) *slog.Logger {
	return s.log.With("job", j.ID, "hash", j.Hash)
}

// Close cancels every running search and stops the workers, then releases
// the store. Queued and in-flight jobs are left non-terminal — with a
// durable store they are exactly what the next process recovers, so from
// the store's perspective Close and a crash are the same event (the
// in-process chaos tests rely on that). For a clean, checkpointing
// shutdown use Drain.
func (s *Server) Close() {
	s.sched.close()
	s.stop()
	s.wg.Wait()
	_ = s.store.Close()
}

// Drain gracefully stops the server: new submissions are rejected, every
// running search is cancelled at its next generation boundary — emitting a
// final checkpoint through the store — queued and in-flight jobs stay
// non-terminal in the WAL for the next process to recover, and the store
// is flushed and closed. Returns ctx.Err() if the workers outlive the
// context; the store is closed either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true) // /readyz flips to 503 from here on
	s.log.Info("drain started", "queue_depth", s.queueDepth())
	s.sched.close()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain cut short: %w", ctx.Err())
	}
	if cerr := s.store.Close(); err == nil && cerr != nil {
		err = cerr
	}
	s.log.Info("drain finished", "err", err)
	return err
}

// queueDepth snapshots the number of jobs waiting for a worker.
func (s *Server) queueDepth() int {
	return s.sched.depth()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job := s.sched.dequeue()
		if job == nil {
			return
		}
		s.runJob(job)
		// Settle the tenant's running/outstanding accounting whether the
		// job finished, was cancelled, or was left recoverable by a drain.
		s.sched.release(job)
	}
}

// runJob executes one search with cancellation, checkpointing and progress
// plumbed in, then records the terminal state and server-level metrics.
// A drain or Close that interrupts the search leaves the job non-terminal:
// the WAL still lists it as accepted-but-unfinished, so the next process
// recovers it — from its final checkpoint when checkpointing is on —
// instead of marking it cancelled.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.setRunning(cancel) {
		return // cancelled while queued
	}
	s.tenantStats.observeQueueWait(j.Tenant, time.Since(j.created).Seconds())
	log := s.jobLog(j)
	log.Info("job running", "model", j.spec.model.Name, "budget", j.spec.req.Budget,
		"resuming", j.resume != nil)
	running := int(s.running.Add(1))
	defer s.running.Add(-1)
	opts := j.spec.opts
	if opts.Workers == 0 {
		// Split the cores between the searches expected to share them:
		// those running now, this one included, plus the queued ones the
		// free workers start next, at most cfg.Workers. A job that starts
		// alone gets a full crew; under load, concurrent jobs never run
		// crew helpers on shared cores. Results are the same at any
		// worker count.
		busy := min(running+s.queueDepth(), s.cfg.Workers)
		opts.Workers = max(1, runtime.GOMAXPROCS(0)/busy)
	}
	// The server's shared tier backs every job. Safe under dedup: pure
	// cache sharing is bit-identical, and the trajectory-changing warm
	// start rides in via the spec (and its hash) instead.
	opts.SharedCache = s.analysis
	opts.Trace = j.trace
	opts.OnProgress = func(p digamma.Progress) {
		j.cacheHits.Store(p.CacheHits)
		j.cacheMisses.Store(p.CacheMisses)
		j.deltaEvals.Store(uint64(p.DeltaEvals))
		j.layersReused.Store(uint64(p.LayersReused))
		j.poolGets.Store(p.PoolGets)
		j.poolReuses.Store(p.PoolReuses)
		j.Publish(Event{
			Type:          "progress",
			Generation:    p.Generation,
			Samples:       p.Samples,
			Budget:        p.Budget,
			BestFitness:   p.BestFitness,
			CacheHitRate:  hitRate(p.CacheHits, p.CacheMisses),
			DeltaEvals:    p.DeltaEvals,
			LayersReused:  p.LayersReused,
			PoolReuseRate: hitRate(p.PoolReuses, p.PoolGets-p.PoolReuses),
		})
	}
	if _, inMemoryOnly := s.store.(nullStore); !inMemoryOnly && s.cfg.CheckpointEvery > 0 {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.OnCheckpoint = func(ck *digamma.Checkpoint) {
			t0 := j.trace.Now()
			err := s.store.SaveCheckpoint(j.ID, ck)
			s.recordIO(j, obs.IOCkptSave, t0)
			if err != nil {
				s.storeErrors.Add(1)
				log.Warn("checkpoint write failed", "err", err)
				return
			}
			s.checkpointsWritten.Add(1)
		}
	}
	opts.Resume = j.resume
	runCtx := ctx
	if s.cfg.JobDeadline > 0 {
		// BestEffort turns a deadline expiry into a usable partial result
		// (finished as StateDegraded below) instead of a bare error.
		opts.BestEffort = true
		var cancelDeadline context.CancelFunc
		runCtx, cancelDeadline = context.WithTimeout(ctx, s.cfg.JobDeadline)
		defer cancelDeadline()
	}
	begin := time.Now()
	ev, err := s.searchGuarded(runCtx, j, opts)
	if err != nil && opts.Resume != nil && runCtx.Err() == nil {
		// A checkpoint that no longer restores (engine knobs changed across
		// the restart, corrupt blob, ...) should not fail the job outright;
		// fall back to a fresh search of the same spec.
		opts.Resume = nil
		ev, err = s.searchGuarded(runCtx, j, opts)
	}
	backend := j.spec.req.Fidelity
	switch {
	case err == nil:
		s.recordLatency(time.Since(begin).Seconds(), backend)
		s.foldTelemetry(j)
		s.tenantStats.addEvals(j.Tenant, uint64(j.cost))
		j.finish(StateDone, ev, nil)
	case s.baseCtx.Err() != nil:
		// Drain/Close interrupted the search: leave the job non-terminal so
		// a durable store recovers it on restart.
		log.Info("job interrupted by shutdown, left recoverable")
		return
	case ev != nil && errors.Is(err, context.DeadlineExceeded):
		s.jobsDegraded.Add(1)
		s.recordLatency(time.Since(begin).Seconds(), backend)
		s.foldTelemetry(j)
		s.tenantStats.addEvals(j.Tenant, uint64(j.cost))
		j.finish(StateDegraded, ev, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCancelled, nil, err)
	default:
		j.finish(StateFailed, nil, err)
	}
	log.Info("job finished", "state", string(j.State()),
		"wall_seconds", time.Since(begin).Seconds(), "err", err)
	s.noteFinished(j)
	s.persistTerminal(j)
	s.finishReport(j)
}

// recordIO records one store write into the job's trace and the
// /metrics histogram for its op.
func (s *Server) recordIO(j *Job, op string, t0 time.Duration) {
	if j.trace == nil {
		return
	}
	dur := j.trace.Now() - t0
	j.trace.Record(obs.Span{Name: op, Cat: obs.CatIO, Island: -1, Gen: -1, Start: t0, Dur: dur})
	if h := s.ioHist[op]; h != nil {
		h.Observe(dur.Seconds())
	}
}

// finishReport closes out a terminal job's observability: folds its phase
// spans into the /metrics histograms, builds the structured run report,
// attaches it for GET /v1/jobs/{id}/report and persists it next to the
// result. Runs after persistTerminal so the result_save span is in the
// report's I/O table.
func (s *Server) finishReport(j *Job) {
	if j.trace == nil {
		return
	}
	for _, sp := range j.trace.Snapshot().Spans {
		if sp.Cat != obs.CatPhase {
			continue
		}
		if h := s.phaseHist[sp.Name]; h != nil {
			h.Observe(sp.Dur.Seconds())
		}
	}
	rep := s.buildReport(j)
	j.setReport(rep)
	data, err := json.Marshal(rep)
	if err == nil {
		t0 := j.trace.Now()
		err = s.store.SaveReport(j.ID, data)
		s.recordIO(j, obs.IOReport, t0)
	}
	if err != nil {
		s.storeErrors.Add(1)
		s.jobLog(j).Warn("report write failed", "err", err)
	}
}

// searchGuarded runs the search behind the fault-injection harness and a
// panic barrier: a panicking worker — injected or real — fails only its
// own job, never the process.
func (s *Server) searchGuarded(ctx context.Context, j *Job, opts digamma.Options) (ev *digamma.Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			ev, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if err := s.cfg.Faults.Hit("worker.run"); err != nil {
		return nil, err
	}
	return digamma.OptimizeContext(ctx, j.spec.model, j.spec.platform, opts)
}

// foldTelemetry folds a finishing job's evaluation counters into the
// server-level aggregates served by /metrics.
func (s *Server) foldTelemetry(j *Job) {
	s.cacheHits.Add(j.cacheHits.Load())
	s.cacheMisses.Add(j.cacheMisses.Load())
	s.deltaEvals.Add(j.deltaEvals.Load())
	s.layersReused.Add(j.layersReused.Load())
	s.poolGets.Add(j.poolGets.Load())
	s.poolReuses.Add(j.poolReuses.Load())
}

// persistTerminal writes a terminal job's record to the store, so recovery
// serves its result instead of re-running it. Store failures are counted,
// not fatal: the in-memory state stays authoritative for this process.
func (s *Server) persistTerminal(j *Job) {
	t0 := j.trace.Now()
	err := s.store.SaveTerminal(j.terminalRecord())
	s.recordIO(j, obs.IOResult, t0)
	if err != nil {
		s.storeErrors.Add(1)
		s.jobLog(j).Warn("result write failed", "err", err)
	}
}

// submit registers a job for the spec, deduplicating against any live or
// fully-completed job with the same canonical hash (failed, cancelled and
// degraded jobs don't block a retry — a degraded result is partial, so a
// resubmit deserves the full budget). The bool reports a dedup hit.
func (s *Server) submit(spec *searchSpec) (*Job, bool, error) {
	s.submitted.Add(1)
	if s.draining.Load() {
		s.rejected.Add(1)
		return nil, false, errors.New("server is draining")
	}
	s.mu.Lock()
	if prev, ok := s.byHash[spec.hash]; ok {
		if st := prev.State(); st != StateFailed && st != StateCancelled && st != StateDegraded {
			s.mu.Unlock()
			s.dedupHits.Add(1)
			return prev, true, nil
		}
	}
	s.seq++
	job := newJob(fmt.Sprintf("j%06d", s.seq), spec)
	job.trace = s.newTracer()
	// Ordering, all under s.mu: admission first (a rejected submit must
	// never reach the WAL), then the WAL append (once a client can observe
	// the ID, a crash must not forget the job), then the enqueue and map
	// publication. If the job were visible before it was enqueued, a
	// concurrent identical submit could dedup onto it in the instant
	// before a rollback, handing out an ID that would 404 forever. All
	// queue growth happens here under s.mu, so the scheduler's state can
	// only shrink between the admission check and the enqueue — which
	// therefore cannot fail for capacity, only for a racing Close/Drain.
	if err := s.sched.admit(spec.req.Tenant, 1, spec.req.Budget); err != nil {
		s.seq--
		s.mu.Unlock()
		s.rejected.Add(1)
		if errors.Is(err, errTenantCap) {
			s.tenantStats.addRejection(spec.req.Tenant)
		}
		return nil, false, err
	}
	t0 := job.trace.Now()
	err := s.store.LogAccepted(JobRecord{ID: job.ID, Hash: job.Hash, CreatedAt: job.created, Req: spec.req})
	s.recordIO(job, obs.IOWALAppend, t0)
	if err != nil {
		s.seq--
		s.mu.Unlock()
		s.storeErrors.Add(1)
		s.rejected.Add(1)
		return nil, false, fmt.Errorf("persisting job: %w", err)
	}
	if !s.sched.enqueue(job, false) {
		// The ID is burned — it is in the WAL, and recovery after the
		// shutdown in progress will pick the job up; don't reuse the seq.
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, false, errClosed
	}
	s.jobs[job.ID] = job
	s.byHash[spec.hash] = job
	s.mu.Unlock()
	s.jobLog(job).Info("job accepted", "model", spec.model.Name, "tenant", spec.req.Tenant,
		"budget", spec.req.Budget, "seed", spec.req.Seed, "fidelity", spec.req.Fidelity)
	return job, false, nil
}

// noteFinished enters a terminal job into the eviction order and trims
// the store to StoreLimit.
func (s *Server) noteFinished(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.StoreLimit {
		id := s.finished[0]
		s.finished = s.finished[1:]
		if old, ok := s.jobs[id]; ok {
			delete(s.jobs, id)
			if s.byHash[old.Hash] == old {
				delete(s.byHash, old.Hash)
			}
		}
	}
}

func (s *Server) get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleSubmit)
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Inline workloads are at most a few thousand layers; anything near
	// the limit is abuse, and an unbounded decode would buffer it all.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	spec, err := buildSpec(req, s.cfg.MaxBudget)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, dedup, err := s.submit(spec)
	if err != nil {
		s.writeSubmitError(w, spec.req.Tenant, err)
		return
	}
	st := job.Status(dedup && job.State() == StateDone)
	st.Deduplicated = dedup
	code := http.StatusAccepted
	if dedup {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// writeSubmitError maps a submit failure onto its admission-control HTTP
// status: a tenant over its own cap gets 429 with a Retry-After estimated
// from that tenant's live load (the service still has headroom, so backing
// off is the right client move); a full queue or a draining server stays
// 503, exactly the single-tenant behaviour earlier trees shipped.
func (s *Server) writeSubmitError(w http.ResponseWriter, tenant string, err error) {
	if errors.Is(err, errTenantCap) {
		retry := s.sched.tenantLoad(tenant)
		if retry < 1 {
			retry = 1
		} else if retry > 30 {
			retry = 30
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// waitFor blocks until done closes, the request's ?wait= window (capped at
// Config.WaitCap) expires, or the client disconnects. Reports a bad
// duration via a 400 and false; every other outcome returns true — an
// expired window is not an error, the caller serves the current status
// with 200.
func (s *Server) waitFor(w http.ResponseWriter, r *http.Request, done <-chan struct{}) bool {
	d := r.URL.Query().Get("wait")
	if d == "" {
		return true
	}
	dur, err := time.ParseDuration(d)
	if err != nil || dur < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q", d))
		return false
	}
	// The cap exists so a client typo ("wait=1h") cannot pin a handler
	// goroutine for the server's lifetime.
	if dur > s.cfg.WaitCap {
		dur = s.cfg.WaitCap
	}
	t := time.NewTimer(dur)
	select {
	case <-done:
	case <-t.C:
	case <-r.Context().Done():
	}
	t.Stop()
	return true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	// ?wait=<duration> long-polls: the response is held until the job is
	// terminal or the window expires, then carries the usual status (200
	// with the current, possibly non-terminal state — never an opaque
	// timeout). One round-trip replaces a poll loop — warm-started
	// near-duplicate searches finish in well under a millisecond, where
	// any fixed poll interval would dominate the observed latency.
	if !s.waitFor(w, r, j.Done()) {
		return
	}
	writeJSON(w, http.StatusOK, j.Status(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.Status(false))
}

// cancelJob requests one job's cancellation, settling a queued job's
// scheduler slot and terminal persistence immediately (shared by the job
// DELETE handler and batch-wide DELETE).
func (s *Server) cancelJob(j *Job) {
	_, finalized := j.requestCancel()
	if finalized {
		// Cancelled while queued: free the queue slot and tenant budget now
		// rather than when a worker eventually drains the dead entry, and
		// persist the terminal state so recovery doesn't resurrect the job.
		s.sched.dropQueued(j)
		s.noteFinished(j)
		s.persistTerminal(j)
	}
}

// handleEvents streams a job's progress as Server-Sent Events: the full
// history replays first, then live events until a terminal state event or
// client disconnect.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, ch, unsub := j.Subscribe()
	defer unsub()
	for _, ev := range replay {
		done, err := writeSSE(w, ev)
		if err != nil {
			return // client went away mid-replay; stop writing
		}
		if done {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Shutdown: tell the client the stream is ending for a
			// server-side reason, not because the job reached a terminal
			// state (it may be recovered and resumed after a restart).
			_, _ = writeSSE(w, Event{Type: "error", Error: "server shutting down"})
			fl.Flush()
			return
		case ev := <-ch:
			done, err := writeSSE(w, ev)
			fl.Flush()
			if err != nil || done {
				return
			}
		}
	}
}

// writeSSE emits one event frame, reporting whether it was terminal and
// any write error (a disconnected client) so the handler stops streaming.
func writeSSE(w http.ResponseWriter, ev Event) (terminal bool, err error) {
	payload, _ := json.Marshal(ev)
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, payload)
	return ev.Type == "state" && ev.State.Terminal(), err
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Name   string `json:"name"`
		Layers int    `json:"layers"`
		MACs   int64  `json:"macs"`
	}
	names := append(append([]string(nil), digamma.ModelNames...), workload.ExtendedModelNames...)
	out := make([]modelInfo, 0, len(names))
	for _, n := range names {
		m, err := digamma.LoadModel(n)
		if err != nil {
			continue
		}
		out = append(out, modelInfo{Name: n, Layers: len(m.Layers), MACs: m.MACs()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	type platformInfo struct {
		Name          string  `json:"name"`
		AreaBudgetMM2 float64 `json:"area_budget_mm2"`
	}
	writeJSON(w, http.StatusOK, map[string]any{"platforms": []platformInfo{
		{Name: "edge", AreaBudgetMM2: digamma.EdgePlatform().AreaBudgetMM2},
		{Name: "cloud", AreaBudgetMM2: digamma.CloudPlatform().AreaBudgetMM2},
	}})
}

// handleHealth is liveness: 200 as long as the process serves HTTP, with
// a snapshot of uptime, queue depth and the recent-latency window (p50/
// p95 over the ring recordLatency maintains). Readiness lives on /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	p50, p95, count := s.latencyQuantiles()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"uptime_seconds":     time.Since(s.started).Seconds(),
		"queue_depth":        s.queueDepth(),
		"workers":            s.cfg.Workers,
		"recent_latency_p50": p50,
		"recent_latency_p95": p95,
		"recent_searches":    count,
	})
}

// handleReady is readiness: 503 once Drain has started — the flag flips
// before the listener closes, so a load balancer stops routing new work
// while in-flight requests still complete.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
