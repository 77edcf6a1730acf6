// Package bench is the performance-regression harness behind `xbsim
// bench`: it runs the experiment suite N times under a fresh metrics
// registry, records wall time, allocation, and the per-stage resource
// breakdown into a schema-versioned JSON result, and compares two
// results with separate wall-clock and allocation tolerances so CI can
// fail on real regressions without tripping over machine noise.
//
// Runs are forced serial (Workers=1, Parallelism=1): the pipeline's
// results are bit-identical at any width, so serial execution costs
// only wall clock and buys exact per-stage attribution of the
// process-wide allocation counters (see obs.StageSample).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/obs"
)

// SchemaVersion identifies the Result JSON layout. Load accepts any
// version in [MinSchemaVersion, SchemaVersion] so newer binaries can
// still compare against older baselines; versions outside the range are
// rejected so a comparison never silently mixes incompatible layouts.
//
// Version history:
//
//	1 — iterations with wall/alloc/GC and per-stage breakdown.
//	2 — adds the optional "attribution" section (evaluate-walk cost
//	    breakdown + redundancy summary from one extra profiled run).
//	    Purely additive: schema-1 files load fine and compare on
//	    wall/alloc only.
//	3 — adds the optional "samplers" section (cross-backend sampler
//	    comparison: CPI error vs simulated-instruction budget per
//	    backend, from `xbsim bench -samplers`). Purely additive:
//	    schema-1/2 baselines load and compare unchanged.
//	4 — adds the optional "serve" section (service load-test record
//	    from `xbsim serve -loadtest`: throughput, latency quantiles,
//	    cache-hit rate). Purely additive: older baselines load and
//	    compare unchanged, and Compare ignores the section.
const SchemaVersion = 4

// MinSchemaVersion is the oldest Result layout Load still accepts.
const MinSchemaVersion = 1

// StageStats is one pipeline stage's resource use in one iteration,
// scanned from the stage.<name>.* metric family.
type StageStats struct {
	// Attempts counts stage attempts (retries included).
	Attempts uint64 `json:"attempts"`
	// WallUS is the total stage wall time in microseconds.
	WallUS uint64 `json:"wall_us"`
	// AllocBytes is the total bytes allocated during the stage.
	AllocBytes uint64 `json:"alloc_bytes"`
}

// Iteration is one full-suite run.
type Iteration struct {
	// WallUS is the end-to-end suite wall time in microseconds.
	WallUS uint64 `json:"wall_us"`
	// AllocBytes is the process allocation delta across the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	// GCCycles is the GC cycle delta across the run.
	GCCycles uint64 `json:"gc_cycles"`
	// Stages maps stage name to its resource breakdown.
	Stages map[string]StageStats `json:"stages"`
}

// Result is a schema-versioned benchmark record, comparable across
// commits via Compare.
type Result struct {
	// Schema is the Result layout version (SchemaVersion).
	Schema int `json:"schema_version"`
	// Label is a free-form tag for the run (e.g. a commit id).
	Label string `json:"label,omitempty"`
	// GoVersion records the toolchain the numbers came from.
	GoVersion string `json:"go_version"`
	// Benchmarks, TargetOps, and IntervalSize pin the workload shape.
	Benchmarks   []string `json:"benchmarks"`
	TargetOps    uint64   `json:"target_ops"`
	IntervalSize uint64   `json:"interval_size"`
	// Iterations holds one entry per suite run.
	Iterations []Iteration `json:"iterations"`
	// Attribution, when present (schema >= 2), is the evaluate-walk cost
	// breakdown from one extra profiled run; nil in older baselines.
	Attribution *AttributionRecord `json:"attribution,omitempty"`
	// Samplers, when present (schema >= 3), is the cross-backend sampler
	// comparison recorded by `xbsim bench -samplers`; nil otherwise.
	// Compare ignores it — accuracy tracking is a human/CI-artifact
	// concern, not a pass/fail gate.
	Samplers *experiment.SamplerComparison `json:"samplers,omitempty"`
	// Serve, when present (schema >= 4), is the analysis-service
	// load-test record from `xbsim serve -loadtest`; nil otherwise.
	// Compare ignores it for the same reason as Samplers.
	Serve *ServeRecord `json:"serve,omitempty"`
}

// ServeRecord captures one `xbsim serve -loadtest` run: a mixed
// fresh/duplicate submission stream against an in-process service,
// measured end to end over HTTP (submit → result available).
type ServeRecord struct {
	// Jobs is the number of submissions issued; Clients the number of
	// concurrent submitters.
	Jobs    int `json:"jobs"`
	Clients int `json:"clients"`
	// Unique and Duplicates split the stream: duplicates resubmit
	// already-issued work and should be served from the result cache.
	Unique     int `json:"unique"`
	Duplicates int `json:"duplicates"`
	// Completed counts submissions whose result became available;
	// Failed counts terminal failures; Rejected counts 429s.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	// CacheHits counts submissions answered from the content-addressed
	// result cache without running the pipeline.
	CacheHits int `json:"cache_hits"`
	// Coalesced counts duplicates that joined an in-flight job (202
	// under another submission's trace) instead of starting their own.
	// The rest of Completed are fresh jobs.
	Coalesced int `json:"coalesced"`
	// WallUS is the whole load test's wall time in microseconds.
	WallUS uint64 `json:"wall_us"`
	// ThroughputJobsPerSec is Completed / wall seconds.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// P50US / P99US are submit-to-result latency quantiles in
	// microseconds across completed submissions.
	P50US uint64 `json:"p50_us"`
	P99US uint64 `json:"p99_us"`
	// CacheHitP50US is the latency median over cache-hit submissions
	// alone — the "duplicate work is free" number.
	CacheHitP50US uint64 `json:"cache_hit_p50_us"`
}

// Write renders the record as a human-readable summary.
func (s *ServeRecord) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"serve loadtest: %d jobs (%d unique + %d duplicate) over %d client(s) in %.1fms\n"+
			"  completed %d, failed %d, rejected %d, cache hits %d (%.0f%% of duplicates), coalesced %d\n"+
			"  throughput %.1f jobs/s, latency p50 %.1fms p99 %.1fms, cache-hit p50 %.2fms\n",
		s.Jobs, s.Unique, s.Duplicates, s.Clients, float64(s.WallUS)/1000,
		s.Completed, s.Failed, s.Rejected, s.CacheHits, s.cacheHitRate()*100, s.Coalesced,
		s.ThroughputJobsPerSec, float64(s.P50US)/1000, float64(s.P99US)/1000,
		float64(s.CacheHitP50US)/1000)
	return err
}

func (s *ServeRecord) cacheHitRate() float64 {
	if s.Duplicates == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Duplicates)
}

// AttributionRecord captures the evaluate-stage cost attribution of one
// extra suite run executed with the obs.Attribution profiler enabled.
// The timed iterations run with profiling off, so this run's wall time
// is recorded separately: WallUS / the fastest timed iteration bounds
// the profiler's enabled overhead.
type AttributionRecord struct {
	// WallUS is the profiled run's end-to-end wall time in microseconds.
	WallUS uint64 `json:"wall_us"`
	// AttributedWallUS is the wall time charged to walk-level nodes —
	// the slice of WallUS the profiler can explain.
	AttributedWallUS uint64 `json:"attributed_wall_us"`
	// Walks holds the walk-level attribution nodes (points are omitted
	// to keep baselines small; run `xbsim profile` for the full tree).
	Walks []obs.AttribNode `json:"walks"`
	// Redundancy is the duplicate-evaluation summary.
	Redundancy obs.RedundancySummary `json:"redundancy"`
}

// MinWallUS returns the fastest iteration's wall time — the standard
// noise-robust statistic for "how fast can this code go".
func (r *Result) MinWallUS() uint64 {
	var min uint64
	for i, it := range r.Iterations {
		if i == 0 || it.WallUS < min {
			min = it.WallUS
		}
	}
	return min
}

// MeanAllocBytes returns the mean allocation across iterations.
// Allocation is nearly deterministic run-to-run, so the mean is a
// tight statistic.
func (r *Result) MeanAllocBytes() uint64 {
	if len(r.Iterations) == 0 {
		return 0
	}
	var sum uint64
	for _, it := range r.Iterations {
		sum += it.AllocBytes
	}
	return sum / uint64(len(r.Iterations))
}

// StageNames returns the union of stage names across iterations,
// sorted.
func (r *Result) StageNames() []string {
	seen := map[string]bool{}
	for _, it := range r.Iterations {
		for name := range it.Stages {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// minStageWallUS returns the fastest iteration's wall time for one
// stage (0 when the stage never ran).
func (r *Result) minStageWallUS(stage string) uint64 {
	var min uint64
	first := true
	for _, it := range r.Iterations {
		st, ok := it.Stages[stage]
		if !ok {
			continue
		}
		if first || st.WallUS < min {
			min = st.WallUS
			first = false
		}
	}
	return min
}

// Options configures Run.
type Options struct {
	// Config is the suite configuration; Workers and Parallelism are
	// forced to 1 for exact resource attribution.
	Config experiment.Config
	// Iterations is the number of suite runs (default 3).
	Iterations int
	// Label tags the result.
	Label string
	// Progress, when non-nil, receives one line per iteration.
	Progress io.Writer
}

// Run executes the suite Options.Iterations times and collects a
// Result. Each iteration gets a fresh metrics registry (no tracer, no
// recorder — the harness measures the pipeline, not the telemetry),
// and the per-stage breakdown is scanned from the
// stage.<name>.duration_us / .alloc_bytes metric family that
// experiment.runStage publishes.
func Run(ctx context.Context, opt Options) (*Result, error) {
	cfg := opt.Config
	cfg.Workers = 1
	cfg.Parallelism = 1
	n := opt.Iterations
	if n <= 0 {
		n = 3
	}
	res := &Result{
		Schema:       SchemaVersion,
		Label:        opt.Label,
		GoVersion:    runtime.Version(),
		Benchmarks:   cfg.Benchmarks,
		TargetOps:    cfg.TargetOps,
		IntervalSize: cfg.IntervalSize,
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := experiment.RunCtx(obs.With(ctx, o), cfg); err != nil {
			return nil, fmt.Errorf("bench: iteration %d: %w", i, err)
		}
		wall := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)

		it := Iteration{
			WallUS:     uint64(wall.Microseconds()),
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			GCCycles:   uint64(after.NumGC - before.NumGC),
			Stages:     stageBreakdown(o.Metrics.Snapshot()),
		}
		res.Iterations = append(res.Iterations, it)
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "bench: iteration %d/%d: %.1fms, %s allocated, %d GC cycles\n",
				i+1, n, float64(it.WallUS)/1000, formatBytes(it.AllocBytes), it.GCCycles)
		}
	}

	// One extra run with the attribution profiler on. Kept out of the
	// timed iterations so the recorded wall/alloc numbers always measure
	// the profiler-off pipeline; the ratio of this run's wall time to the
	// fastest timed iteration is the profiler's enabled overhead.
	att := obs.NewAttribution()
	o := &obs.Observer{Metrics: obs.NewRegistry(), Attrib: att}
	start := time.Now()
	if _, err := experiment.RunCtx(obs.With(ctx, o), cfg); err != nil {
		return nil, fmt.Errorf("bench: attribution run: %w", err)
	}
	wall := time.Since(start)
	snap := att.Snapshot()
	res.Attribution = &AttributionRecord{
		WallUS:           uint64(wall.Microseconds()),
		AttributedWallUS: snap.TotalWallNS() / 1000,
		Walks:            snap.Walks(),
		Redundancy:       snap.Redundancy,
	}
	if opt.Progress != nil {
		fmt.Fprintf(opt.Progress, "bench: attribution run: %.1fms wall, %.1fms attributed, %.0f%% duplicate evaluations, %.0f%% memo hit rate\n",
			float64(res.Attribution.WallUS)/1000, float64(res.Attribution.AttributedWallUS)/1000,
			snap.Redundancy.DuplicateFraction()*100, snap.Redundancy.MemoHitRate()*100)
	}
	return res, nil
}

// stageBreakdown scans a snapshot for the per-stage resource metrics.
func stageBreakdown(snap obs.Snapshot) map[string]StageStats {
	stages := map[string]StageStats{}
	for _, name := range snap.HistogramNames() {
		rest, ok := strings.CutPrefix(name, "stage.")
		if !ok {
			continue
		}
		stage, ok := strings.CutSuffix(rest, ".duration_us")
		if !ok {
			continue
		}
		h := snap.Histograms[name]
		stages[stage] = StageStats{
			Attempts:   h.Count,
			WallUS:     h.Sum,
			AllocBytes: snap.Counters["stage."+stage+".alloc_bytes"],
		}
	}
	return stages
}

// Save writes the result as indented JSON.
func (r *Result) Save(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a result and validates its schema version.
func Load(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema < MinSchemaVersion || r.Schema > SchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema version %d, this binary speaks %d..%d",
			path, r.Schema, MinSchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Write renders the result as a human-readable table.
func (r *Result) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "bench: %d iteration(s), %d benchmark(s), min wall %.1fms, mean alloc %s\n",
		len(r.Iterations), len(r.Benchmarks),
		float64(r.MinWallUS())/1000, formatBytes(r.MeanAllocBytes())); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-14s %10s %12s %12s\n", "stage", "attempts", "min wall", "alloc"); err != nil {
		return err
	}
	for _, name := range r.StageNames() {
		var attempts, alloc uint64
		for _, it := range r.Iterations {
			attempts += it.Stages[name].Attempts
			alloc += it.Stages[name].AllocBytes
		}
		if len(r.Iterations) > 0 {
			alloc /= uint64(len(r.Iterations))
		}
		if _, err := fmt.Fprintf(w, "  %-14s %10d %10.1fms %12s\n",
			name, attempts, float64(r.minStageWallUS(name))/1000, formatBytes(alloc)); err != nil {
			return err
		}
	}
	if a := r.Attribution; a != nil {
		overhead := ""
		if min := r.MinWallUS(); min > 0 {
			overhead = fmt.Sprintf(", %+.1f%% vs fastest timed iteration",
				(float64(a.WallUS)/float64(min)-1)*100)
		}
		if _, err := fmt.Fprintf(w, "  attribution: %d walk nodes, %.1fms attributed of %.1fms profiled wall%s\n",
			len(a.Walks), float64(a.AttributedWallUS)/1000, float64(a.WallUS)/1000, overhead); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  redundancy: %d evaluations, %d unique, %d duplicate (%.0f%%), %d of %d instructions re-simulated\n",
			a.Redundancy.Evaluations, a.Redundancy.Unique, a.Redundancy.Duplicates,
			a.Redundancy.DuplicateFraction()*100,
			a.Redundancy.DuplicateInstructions, a.Redundancy.TotalInstructions); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  memo: %d hits, %d misses (%.0f%% hit rate), %d instructions not re-simulated\n",
			a.Redundancy.MemoHits, a.Redundancy.MemoMisses,
			a.Redundancy.MemoHitRate()*100, a.Redundancy.MemoSavedInstructions); err != nil {
			return err
		}
	}
	if s := r.Samplers; s != nil {
		if _, err := fmt.Fprintf(w, "  samplers: %d backend configuration(s) compared over %d benchmark(s)\n",
			len(s.Rows), len(s.Benchmarks)); err != nil {
			return err
		}
	}
	if s := r.Serve; s != nil {
		if err := s.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
