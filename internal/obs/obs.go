// Package obs is digamma's dependency-free tracing and telemetry
// substrate: a bounded per-run flight recorder of phase spans (breed,
// evaluate, migrate, checkpoint, store I/O, ...), per-operator and
// per-island attribution of fitness improvements, Prometheus-style
// cumulative histograms, a Chrome trace_event exporter and a structured
// run-report builder.
//
// Two contracts make it safe to thread through the deterministic search
// kernel:
//
//   - Off the RNG stream: a Tracer only ever reads wall-clock time and
//     counters the search already computed. It never draws randomness and
//     never feeds anything back into the search, so results are
//     bit-identical with tracing on or off.
//   - Zero-cost when disabled: every method is safe on a nil *Tracer and
//     reduces to a single predictable branch — no time syscall, no
//     allocation, no atomic — so the untraced hot path is unchanged.
package obs

import (
	"math"
	"sync"
	"time"
)

// Span categories. Phase spans are the leaf, non-overlapping slices of an
// island's (or the coordinator's) timeline that a run report sums into the
// phase breakdown; run spans are umbrellas (the whole search, the queue
// wait) excluded from the sum; io spans time store writes, which overlap
// the engine phases that triggered them and are reported separately.
const (
	CatPhase = "phase"
	CatRun   = "run"
	CatIO    = "io"
)

// Span names recorded by the engine, facade and serving layers.
const (
	PhaseQueueWait = "queue_wait" // serve: job creation → worker pickup (CatRun)
	PhaseSearch    = "search"     // facade: the whole optimize call (CatRun)
	PhaseInit      = "init"       // engine: initial population evaluation
	PhaseBreed     = "breed"      // engine: operator pipeline per generation (the coordinator's breeding; helpers already score bred children)
	PhaseEvaluate  = "evaluate"   // engine: batch scoring per generation, from the last child bred to the batch's completion
	PhaseMigrate   = "migrate"    // engine: ring elite exchange (+ scout re-score)
	PhaseRescore   = "rescore"    // engine: scout elites re-scored on the full model
	PhaseCkpt      = "checkpoint" // engine: snapshot build + OnCheckpoint callback
	PhaseFinalize  = "finalize"   // engine: final sort, detach, telemetry fold
	PhaseOther     = "other"      // report-synthesized: search − Σ engine phases

	IOWALAppend = "wal_append"      // serve: fsynced WAL append at submit
	IOCkptSave  = "checkpoint_save" // serve: checkpoint write inside OnCheckpoint
	IOResult    = "result_save"     // serve: terminal record write
	IOReport    = "report_save"     // serve: run-report write
)

// Span is one recorded interval. Start is an offset from the tracer's
// epoch; Island is -1 for coordinator/serve-side spans. Evaluate spans
// carry the batch composition: N candidates split into Full cost-model
// scores, Delta dirty-layer scores and Pruned bound-screened skips.
type Span struct {
	Name   string        `json:"name"`
	Cat    string        `json:"cat"`
	Island int32         `json:"island"`
	Gen    int32         `json:"gen"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	N      int32         `json:"n,omitempty"`
	Full   int32         `json:"full,omitempty"`
	Delta  int32         `json:"delta,omitempty"`
	Pruned int32         `json:"pruned,omitempty"`
}

// Op identifies one genetic operator for attribution. The values index
// OpStat tables and must stay dense.
type Op uint8

// The specialized operators of the paper's Fig. 4.
const (
	OpCross Op = iota
	OpReorder
	OpMutMap
	OpMutHW
	OpGrow
	OpAge
	NumOps
)

var opNames = [NumOps]string{"crossover", "reorder", "mutate-map", "mutate-hw", "grow", "age"}

// String returns the operator's report name.
func (op Op) String() string {
	if op < NumOps {
		return opNames[op]
	}
	return "unknown"
}

// OpMask is the set of operators that participated in breeding one child.
// Computing it costs a few register ORs in branches the breeder already
// takes, so it is recorded unconditionally and stored only when tracing.
type OpMask uint8

// Set adds op to the mask.
func (m *OpMask) Set(op Op) { *m |= 1 << op }

// Has reports whether op is in the mask.
func (m OpMask) Has(op Op) bool { return m&(1<<op) != 0 }

// OpStat aggregates one operator's attribution: how many children it
// helped breed (its budget spend), how many of those improved on their
// breeding parent, and the total fitness improvement of the winners.
// An improvement is co-attributed to every operator in the child's mask.
type OpStat struct {
	Children uint64  `json:"children"`
	Wins     uint64  `json:"wins"`
	Gain     float64 `json:"gain"`
}

// IslandStat is the latest per-island observation: profile identity,
// cumulative samples, incumbent fitness and population diversity (fitness
// standard deviation). Generations counts the observations folded in.
type IslandStat struct {
	Island      int     `json:"island"`
	Profile     string  `json:"profile"`
	Scout       bool    `json:"scout,omitempty"`
	Generations int64   `json:"generations"`
	Samples     int64   `json:"samples"`
	BestFitness float64 `json:"best_fitness"`
	Diversity   float64 `json:"diversity"`
}

// DefaultSpanCap bounds the flight recorder when NewTracer is given 0.
const DefaultSpanCap = 4096

// Tracer is a bounded flight recorder plus attribution aggregates for one
// search (in digammad: one job). All methods are safe on a nil receiver —
// a nil *Tracer is the disabled state and costs one branch per call site.
// Recording is mutex-guarded: islands record concurrently, but only a few
// spans per generation, so contention is negligible.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []Span // ring once len == cap
	cap     int
	head    int // next slot to overwrite when full
	dropped uint64
	ops     [NumOps]OpStat
	islands []IslandStat
}

// NewTracer returns a tracer with its epoch at now. spanCap bounds the
// flight recorder (0 = DefaultSpanCap); once full, the oldest spans are
// overwritten and counted as dropped.
func NewTracer(spanCap int) *Tracer {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Tracer{epoch: time.Now(), cap: spanCap}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Epoch returns the tracer's zero time (job creation in digammad).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Now returns the offset from the tracer's epoch — the Start value for a
// span about to be opened. On a nil tracer it returns 0 without reading
// the clock, which is what keeps the disabled hot path free.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Record appends one span to the flight recorder, overwriting the oldest
// when the ring is full. No-op on a nil tracer.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.head] = s
		t.head = (t.head + 1) % t.cap
		t.dropped++
	}
	t.mu.Unlock()
}

// FoldOps merges one batch's per-operator attribution (accumulated
// lock-free by the caller) into the tracer's totals.
func (t *Tracer) FoldOps(stats *[NumOps]OpStat) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range stats {
		t.ops[i].Children += stats[i].Children
		t.ops[i].Wins += stats[i].Wins
		t.ops[i].Gain += stats[i].Gain
	}
	t.mu.Unlock()
}

// ObserveIsland records an island's latest per-generation state (best
// fitness, diversity, samples), keeping one entry per island.
func (t *Tracer) ObserveIsland(st IslandStat) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.islands {
		if t.islands[i].Island == st.Island {
			st.Generations = t.islands[i].Generations + 1
			t.islands[i] = st
			return
		}
	}
	st.Generations = 1
	t.islands = append(t.islands, st)
}

// Snapshot copies the tracer's state: spans in record order (oldest
// surviving first), operator totals and island observations. Safe to call
// while the search is still recording.
type Snapshot struct {
	Epoch   time.Time
	Spans   []Span
	Dropped uint64
	Ops     [NumOps]OpStat
	Islands []IslandStat
}

// Snapshot returns a consistent copy of everything recorded so far. A nil
// tracer yields a zero snapshot.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := Snapshot{Epoch: t.epoch, Dropped: t.dropped, Ops: t.ops}
	snap.Spans = make([]Span, 0, len(t.spans))
	if len(t.spans) == t.cap {
		snap.Spans = append(snap.Spans, t.spans[t.head:]...)
		snap.Spans = append(snap.Spans, t.spans[:t.head]...)
	} else {
		snap.Spans = append(snap.Spans, t.spans...)
	}
	snap.Islands = append([]IslandStat(nil), t.islands...)
	return snap
}

// FitnessStddev is the population-diversity statistic recorded per island
// per generation: the standard deviation of the fitness values. NaN-free:
// fewer than two values yield 0.
func FitnessStddev(fitness []float64) float64 {
	if len(fitness) < 2 {
		return 0
	}
	mean := 0.0
	for _, f := range fitness {
		mean += f
	}
	mean /= float64(len(fitness))
	varsum := 0.0
	for _, f := range fitness {
		d := f - mean
		varsum += d * d
	}
	return math.Sqrt(varsum / float64(len(fitness)))
}
