package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"xbsim"
	"xbsim/internal/experiment"
)

// pipelineWorkload is a workload of whole-suite passes through the same
// path as `xbsim figures`: RunExperimentsCtx, then Suite.WriteJSON.
type pipelineWorkload struct {
	name   string
	config func(seed uint64) experiment.Config
}

// paperSuite is the paper's shape (21 benchmarks × 4 binaries, MaxK 10,
// Dim 15, 5 restarts) at ~100 intervals per binary, run with the
// `figures` default parallelism. Evaluation (exec + cmpsim) dominates.
var paperSuite = pipelineWorkload{"paper-suite", func(seed uint64) experiment.Config {
	cfg := experiment.FullConfig()
	cfg.TargetOps = 2_000_000
	cfg.IntervalSize = 20_000
	cfg.Workers = runtime.NumCPU()
	cfg.Parallelism = runtime.NumCPU()
	return seeded(cfg, seed)
}}

// fineIntervals is the quick five benchmarks at a quarter of the quick
// interval size with SimPoint 3.0's MaxK 30, run serially: clustering
// dominates and the worker pool is bypassed.
var fineIntervals = pipelineWorkload{"fine-intervals", func(seed uint64) experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.IntervalSize = 3_000
	cfg.MaxK = 30
	cfg.Workers = 1
	cfg.Parallelism = 1
	return seeded(cfg, seed)
}}

// seeded derives the program input and the top-level random stream from
// the workload seed.
func seeded(cfg experiment.Config, seed uint64) experiment.Config {
	cfg.Input.Seed = seed
	cfg.Seed = fmt.Sprintf("xbsim/%d", seed)
	return cfg
}

const (
	// pipelineSetups is how many warm-up set-ups setup_s is the median of.
	pipelineSetups = 5
	// minPasses keeps the medians meaningful when --seconds is short.
	minPasses = 3
	// hitPct is the time spent on checkpoint-resumed passes after each
	// timed pass, in percent of that pass's wall time. Spreading them
	// over the whole run keeps their tail from following the host's
	// state during one short stretch of it.
	hitPct = 10
	// minHits is the least number of resumed passes a run times.
	minHits = 100
)

// pass is one timed RunExperimentsCtx + WriteJSON.
type pass struct {
	suite *experiment.Suite
	wall  time.Duration
	alloc uint64
	out   []byte
	err   error
}

func runPass(ctx context.Context, cfg experiment.Config) pass {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	suite, err := xbsim.RunExperimentsCtx(ctx, cfg)
	var buf bytes.Buffer
	if suite != nil {
		if werr := suite.WriteJSON(&buf); err == nil {
			err = werr
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return pass{suite: suite, wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, out: buf.Bytes(), err: err}
}

func (w pipelineWorkload) run(ctx context.Context, o options) (map[string]metric, *tally, error) {
	cfg := w.config(o.seed)
	if o.trace {
		return traceRun(ctx, o, pipelineTarget(w.name, cfg))
	}
	t := &tally{}

	// Set-up: a warm-up pass over the first fifth of the workload's
	// benchmarks, so the heap and the code are warm before the first
	// timed pass.
	warm := cfg
	warm.Benchmarks = cfg.Benchmarks[:(len(cfg.Benchmarks)+4)/5]
	var setups []float64
	for i := 0; i < pipelineSetups; i++ {
		p := runPass(ctx, warm)
		if p.err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", p.err)
		}
		setups = append(setups, p.wall.Seconds())
	}

	var walls, mips, allocs, jobRates, hits []float64
	var firstOut []byte
	var ref *reference
	fingerprint := ""
	start := time.Now()
	for len(walls) < minPasses || time.Since(start)+seconds(median(walls))*(100+hitPct)/100 <= o.seconds {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		p := runPass(ctx, cfg)
		if p.suite == nil {
			return nil, nil, p.err
		}
		t.attempted += len(cfg.Benchmarks)
		if p.err != nil {
			t.fail(max(len(p.suite.Failures), 1), "pass %d: %v", len(walls), p.err)
		}
		fp := p.suite.Fingerprint()
		switch {
		case firstOut == nil:
			firstOut, fingerprint = p.out, fp
			checkFingerprint(t, w.name, o.seed, fp, len(cfg.Benchmarks))
		case fp != fingerprint || !bytes.Equal(p.out, firstOut):
			t.fail(len(cfg.Benchmarks), "pass %d output (fingerprint %s) differs from the first pass's (%s)", len(walls), fp, fingerprint)
		}
		var instr uint64
		for _, r := range p.suite.Results {
			for _, run := range r.Runs {
				instr += run.TotalInstructions
			}
		}
		walls = append(walls, p.wall.Seconds())
		mips = append(mips, float64(instr)/1e6/p.wall.Seconds())
		allocs = append(allocs, mib(p.alloc))
		jobRates = append(jobRates, float64(len(p.suite.Results))/p.wall.Seconds())

		if ref == nil {
			var err error
			if ref, err = newReference(ctx, w, o, t); err != nil {
				return nil, nil, err
			}
			continue
		}
		hits = append(hits, ref.hits(ctx, p.wall*hitPct/100, t)...)
	}
	for len(hits) < minHits {
		hits = append(hits, ref.hits(ctx, 0, t)...)
	}
	fmt.Fprintf(o.log, "%s: %d passes, %d checkpoint-resumed passes in %.1fs, fingerprint %s\n",
		w.name, len(walls), len(hits), time.Since(start).Seconds(), fingerprint)

	values := map[string]float64{
		"setup_s":      median(setups),
		"suite_s":      median(walls),
		"sim_mips":     median(mips),
		"alloc_mib":    median(allocs),
		"jobs_per_s":   median(jobRates),
		"fresh_p50_ms": 1000 * median(walls),
		"fresh_p90_ms": 1000 * quantile(walls, 0.9),
		"hit_p50_ms":   median(hits),
		"hit_p90_ms":   quantile(hits, 0.9),
	}
	accuracyOf(ref.suite.Export()).into(values)
	return metrics(values), t, nil
}

// reference is the workload at the default seed, computed once per run
// with a checkpoint directory: the suite the accuracy metrics describe,
// and the stored results hit_* reads back.
type reference struct {
	cfg   experiment.Config
	suite *experiment.Suite
	out   []byte
}

// newReference computes and stores every benchmark of the reference
// suite; its fingerprint must be the pinned one.
func newReference(ctx context.Context, w pipelineWorkload, o options, t *tally) (*reference, error) {
	cfg := w.config(defaultSeed)
	cfg.CheckpointDir = filepath.Join(o.scratch, "checkpoints")
	p := runPass(ctx, cfg)
	if p.err != nil {
		return nil, fmt.Errorf("reference pass: %w", p.err)
	}
	t.attempted += len(cfg.Benchmarks)
	checkFingerprint(t, w.name, defaultSeed, p.suite.Fingerprint(), len(cfg.Benchmarks))
	return &reference{cfg: cfg, suite: p.suite, out: p.out}, nil
}

// hits times passes that load every benchmark of the reference suite
// back from its checkpoints instead of computing it: the pipeline's own
// stored-result path. It runs them for d (at least one) after a forced
// GC, so they do not pay for the garbage of the timed pass before them,
// and returns their latencies in ms. Each must yield the reference
// pass's bytes.
func (r *reference) hits(ctx context.Context, d time.Duration, t *tally) []float64 {
	runtime.GC()
	var out []float64
	start := time.Now()
	for len(out) == 0 || (time.Since(start) < d && ctx.Err() == nil) {
		p := runPass(ctx, r.cfg)
		t.attempted++
		if p.err != nil || !bytes.Equal(p.out, r.out) {
			t.fail(1, "checkpoint-resumed pass: err %v, or output differs from the reference pass's", p.err)
		}
		out = append(out, ms(p.wall))
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
