package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"xbsim"
	"xbsim/internal/cmpsim"
	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/mapping"
	"xbsim/internal/profile"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
	"xbsim/internal/simpoint"
)

// The traced driver repeats a workload's pipeline work one program at a
// time, serially, calling each module's exported functions itself and
// timing those calls: the spans live in this benchmark, not in the
// program, so they survive renames of the program's own spans.

// layers are the spans of the traced driver, in pipeline order.
var layers = []string{"compile", "profile", "mapping", "vli", "clustering", "cmpsim"}

// source names one program of a workload and how to generate it.
type source struct {
	name string
	gen  func() (*program.Program, error)
}

// traceTarget is one workload as the traced driver sees it.
type traceTarget struct {
	name     string
	cfg      experiment.Config // the workload's configuration
	programs []source
	// suite runs the same programs through the pipeline in one call.
	suite func(ctx context.Context, cfg experiment.Config) (*experiment.Suite, error)
	// pinned: the suite's fingerprint at the default seed is the one
	// expected.json pins for this workload.
	pinned bool
	// layerPct is the share of the run, in percent, the layer rounds
	// take; the rest is the serve part's.
	layerPct int
	// serve measures the serve and jobqueue layers within budget.
	serve func(ctx context.Context, o options, t *tally, budget time.Duration) (map[string]float64, error)
}

func pipelineTarget(name string, cfg experiment.Config) traceTarget {
	tg := traceTarget{name: name, cfg: cfg, pinned: true, layerPct: 70,
		suite: func(ctx context.Context, c experiment.Config) (*experiment.Suite, error) {
			return xbsim.RunExperimentsCtx(ctx, c)
		}}
	for _, b := range cfg.Benchmarks {
		tg.programs = append(tg.programs, source{b, func() (*program.Program, error) {
			return program.Generate(b, program.GenConfig{TargetOps: cfg.TargetOps})
		}})
	}
	// The serve layers see the whole workload as one job, then as
	// cache hits on it.
	req := jobqueue.Request{Benchmarks: cfg.Benchmarks, Config: cfg}
	tg.serve = func(ctx context.Context, o options, t *tally, _ time.Duration) (map[string]float64, error) {
		return serveOneJob(ctx, o, t, req)
	}
	return tg
}

func (w mixedWorkload) traceTarget(seed uint64) traceTarget {
	cfg := specJobConfig()
	var specs []program.Spec
	tg := traceTarget{name: "serve-mixed", cfg: cfg, layerPct: 40}
	for i := 0; i < w.traceSpecs; i++ {
		s := program.RandomSpec(seed, i).Normalize()
		specs = append(specs, s)
		tg.programs = append(tg.programs, source{s.Name(), func() (*program.Program, error) {
			return program.GenerateSpec(s)
		}})
	}
	tg.suite = func(ctx context.Context, c experiment.Config) (*experiment.Suite, error) {
		return experiment.RunSpecsCtx(ctx, specs, c)
	}
	tg.cfg.Workers = runtime.NumCPU()
	tg.serve = w.layers
	return tg
}

// layerRound is one traced repetition of a target's programs.
type layerRound struct {
	busy  map[string]time.Duration
	alloc map[string]uint64
	// Work counts: must repeat exactly.
	instructions, markers, vliIntervals, clustered, points uint64
	sim                                                    cmpsim.Stats
	outputs                                                []programOutput
}

// programOutput is what the traced driver computed for one program, to
// be compared with the pipeline's own result.
type programOutput struct {
	name     string
	markers  int
	fli      []*simpoint.Result
	vli      *simpoint.Result
	cycles   []uint64
	binaries []string
}

// clock times calls into one layer, with the bytes they allocate.
type clock struct {
	busy  map[string]time.Duration
	alloc map[string]uint64
}

func (c *clock) time(layer string, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	c.busy[layer] += time.Since(start)
	runtime.ReadMemStats(&after)
	c.alloc[layer] += after.TotalAlloc - before.TotalAlloc
	return err
}

func runLayers(ctx context.Context, tg traceTarget) (*layerRound, error) {
	cfg := tg.cfg
	c := clock{busy: map[string]time.Duration{}, alloc: map[string]uint64{}}
	r := &layerRound{busy: c.busy, alloc: c.alloc}
	smp, err := sampler.New(cfg.Sampler)
	if err != nil {
		return nil, err
	}
	for _, src := range tg.programs {
		out := programOutput{name: src.name}
		var prog *program.Program
		var bins []*compiler.Binary
		err := c.time("compile", func() error {
			var err error
			if prog, err = src.gen(); err != nil {
				return err
			}
			bins, err = compiler.CompileAll(prog)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s compile: %w", src.name, err)
		}

		// Walk 1 per binary: instruction and marker counts, FLI BBVs.
		profiles := make([]*profile.Profile, len(bins))
		fli := make([]*profile.FLIResult, len(bins))
		err = c.time("profile", func() error {
			for bi, bin := range bins {
				ic := exec.NewInstructionCounter(bin)
				mc := exec.NewMarkerCounter(bin)
				fc, err := profile.NewFLICollector(bin, cfg.IntervalSize)
				if err != nil {
					return err
				}
				if err := exec.RunCtx(ctx, bin, cfg.Input, exec.Multi{ic, mc, fc}); err != nil {
					return err
				}
				fli[bi] = fc.Finish()
				if profiles[bi], err = profile.BuildProfile(bin, cfg.Input, ic.Instructions, mc.Counts); err != nil {
					return err
				}
				r.instructions += ic.Instructions
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s profile: %w", src.name, err)
		}

		var mapped *mapping.Result
		err = c.time("mapping", func() error {
			var err error
			mapped, err = mapping.FindCtx(ctx, profiles, cfg.Mapping)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s mapping: %w", src.name, err)
		}
		out.markers = len(mapped.Points)
		r.markers += uint64(out.markers)

		// Walk 2: VLI BBVs on the primary binary at the mappable markers.
		primary := cfg.Primary
		var vli *profile.VLIResult
		err = c.time("vli", func() error {
			vc, err := profile.NewVLICollector(bins[primary], cfg.IntervalSize, mapped.MarkersFor(primary))
			if err != nil {
				return err
			}
			if err := exec.RunCtx(ctx, bins[primary], cfg.Input, vc); err != nil {
				return err
			}
			vli = vc.Finish()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s vli: %w", src.name, err)
		}
		r.vliIntervals += uint64(len(vli.Ends))

		// Point selection on each FLI dataset and the VLI dataset, seeded
		// as the pipeline seeds them.
		pickCfg := sampler.Config{MaxK: cfg.MaxK, Dim: cfg.Dim, BICThreshold: cfg.BICThreshold,
			Restarts: cfg.Restarts, EarlyTolerance: cfg.EarlyTolerance,
			Budget: cfg.SamplerBudget, Strata: cfg.SamplerStrata}
		out.fli = make([]*simpoint.Result, len(bins))
		err = c.time("clustering", func() error {
			for bi, bin := range bins {
				pc := pickCfg
				pc.Seed = fmt.Sprintf("%s/fli/%s", cfg.Seed, bin.Name)
				var err error
				if out.fli[bi], err = smp.Pick(ctx, fli[bi].Dataset, pc); err != nil {
					return err
				}
			}
			pc := pickCfg
			pc.Seed = fmt.Sprintf("%s/vli/%s", cfg.Seed, prog.Name)
			var err error
			out.vli, err = smp.Pick(ctx, vli.Dataset, pc)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s clustering: %w", src.name, err)
		}
		for bi := range bins {
			r.clustered += uint64(fli[bi].Dataset.Len())
			r.points += uint64(out.fli[bi].K)
		}
		r.clustered += uint64(vli.Dataset.Len())
		r.points += uint64(out.vli.K)

		// Walk 3 per binary: full simulation.
		err = c.time("cmpsim", func() error {
			for _, bin := range bins {
				sim, err := cmpsim.NewSimulator(bin, cfg.Hierarchy)
				if err != nil {
					return err
				}
				if err := exec.RunCtx(ctx, bin, cfg.Input, sim); err != nil {
					return err
				}
				st := sim.Stats()
				out.cycles = append(out.cycles, st.Cycles)
				out.binaries = append(out.binaries, bin.Name)
				addStats(&r.sim, st)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s cmpsim: %w", src.name, err)
		}
		r.outputs = append(r.outputs, out)
	}
	return r, nil
}

func addStats(dst *cmpsim.Stats, s *cmpsim.Stats) {
	if dst.LevelMisses == nil {
		dst.LevelHits = make([]uint64, len(s.LevelHits))
		dst.LevelMisses = make([]uint64, len(s.LevelMisses))
	}
	dst.Add(s)
}

// verify checks that the traced driver computed what the pipeline
// computed for every program: mappable markers, chosen points and
// full-run cycles. Each mismatching program is one failed operation.
func verify(r *layerRound, suite *experiment.Suite, t *tally) {
	for _, out := range r.outputs {
		t.attempted++
		res := suite.ByName(out.name)
		if res == nil {
			t.fail(1, "%s: missing from the pipeline's suite", out.name)
			continue
		}
		if why := compareOutput(out, res); why != "" {
			t.fail(1, "%s: traced driver and pipeline differ: %s", out.name, why)
		}
	}
}

func compareOutput(out programOutput, res *experiment.BenchmarkResult) string {
	if got := len(res.Mapping.Points); got != out.markers {
		return fmt.Sprintf("mappable markers %d vs %d", out.markers, got)
	}
	if len(res.Runs) != len(out.cycles) {
		return fmt.Sprintf("%d binaries vs %d", len(out.cycles), len(res.Runs))
	}
	for bi, run := range res.Runs {
		if run.TrueCycles != out.cycles[bi] {
			return fmt.Sprintf("%s full-run cycles %d vs %d", out.binaries[bi], out.cycles[bi], run.TrueCycles)
		}
		if !samePoints(out.fli[bi], &run.FLI) {
			return fmt.Sprintf("%s FLI points differ", out.binaries[bi])
		}
		if !samePoints(out.vli, &run.VLI) {
			return fmt.Sprintf("%s VLI points differ", out.binaries[bi])
		}
	}
	return ""
}

func samePoints(pick *simpoint.Result, ms *experiment.MethodStats) bool {
	if pick.K != ms.K || len(pick.Points) != ms.NumPoints || len(pick.PhaseOf) != len(ms.PhaseOf) {
		return false
	}
	for _, p := range pick.Points {
		if ms.PointInterval[p.Phase] != p.Interval {
			return false
		}
	}
	for i, ph := range pick.PhaseOf {
		if ms.PhaseOf[i] != ph {
			return false
		}
	}
	return true
}

// counts are a round's work counts, which every round must repeat.
func (r *layerRound) counts() map[string]float64 {
	m := map[string]float64{
		"mapping.markers":     float64(r.markers),
		"vli.intervals":       float64(r.vliIntervals),
		"clustering.points":   float64(r.points),
		"cmpsim.accesses":     float64(r.sim.Loads + r.sim.Stores),
		"cmpsim.mem_accesses": float64(r.sim.MemoryAccesses),
		"cmpsim.cycles":       float64(r.sim.Cycles),
	}
	for i, name := range []string{"cmpsim.l1_misses", "cmpsim.l2_misses", "cmpsim.l3_misses"} {
		if i < len(r.sim.LevelMisses) {
			m[name] = float64(r.sim.LevelMisses[i])
		}
	}
	return m
}

// traceRun is the --trace 1 run of a workload: layer rounds with a
// serial pipeline pass each, for the target's share of the time; the
// pool-efficiency pass; then the serve and jobqueue layers.
func traceRun(ctx context.Context, o options, tg traceTarget) (map[string]metric, *tally, error) {
	t := &tally{}
	serial := tg.cfg
	serial.Workers, serial.Parallelism = 1, 1
	start := time.Now()
	var rounds []*layerRound
	var expWalls []float64
	var lastRound time.Duration
	for len(rounds) == 0 || time.Since(start)+lastRound <= o.seconds*time.Duration(tg.layerPct)/100 {
		rs := time.Now()
		r, err := runLayers(ctx, tg)
		if err != nil {
			return nil, nil, err
		}
		es := time.Now()
		suite, err := tg.suite(ctx, serial)
		if suite == nil {
			return nil, nil, err
		}
		expWalls = append(expWalls, time.Since(es).Seconds())
		if err != nil {
			t.fail(max(len(suite.Failures), 1), "serial pipeline pass: %v", err)
		}
		verify(r, suite, t)
		if len(rounds) == 0 && tg.pinned {
			checkFingerprint(t, tg.name, o.seed, suite.Fingerprint(), 1)
		}
		if len(rounds) > 0 {
			for n, v := range r.counts() {
				if v != rounds[0].counts()[n] {
					t.fail(1, "%s changed between rounds: %v vs %v", n, rounds[0].counts()[n], v)
				}
			}
		}
		rounds = append(rounds, r)
		lastRound = time.Since(rs)
	}

	values := rounds[0].counts()
	busyMs := func(layer string) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, ms(r.busy[layer]))
		}
		return median(xs)
	}
	allocMiB := func(layer string) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, mib(r.alloc[layer]))
		}
		return median(xs)
	}
	var covered float64
	for _, l := range layers {
		values[l+".busy_ms"] = busyMs(l)
		covered += busyMs(l)
	}
	r0 := rounds[0]
	values["profile.ns_per_instr"] = 1e6 * busyMs("profile") / float64(r0.instructions)
	values["profile.alloc_mib"] = allocMiB("profile")
	values["clustering.us_per_interval"] = 1e3 * busyMs("clustering") / float64(r0.clustered)
	values["clustering.alloc_mib"] = allocMiB("clustering")
	values["cmpsim.ns_per_access"] = 1e6 * busyMs("cmpsim") / float64(r0.sim.Loads+r0.sim.Stores)
	values["cmpsim.alloc_mib"] = allocMiB("cmpsim")
	serialMs := 1000 * median(expWalls)
	values["experiment.busy_ms"] = serialMs
	values["layers.coverage_pct"] = 100 * covered / serialMs

	// Pool efficiency of the workload's own configuration; a serial
	// workload's configured pass is the serial pass itself.
	parMs := serialMs
	if tg.cfg.Workers > 1 {
		ps := time.Now()
		suite, err := tg.suite(ctx, tg.cfg)
		if suite == nil {
			return nil, nil, err
		}
		parMs = ms(time.Since(ps))
		t.attempted++
		if err != nil {
			t.fail(1, "configured pipeline pass: %v", err)
		}
	}
	values["pool.efficiency_pct"] = 100 * serialMs / (parMs * float64(max(tg.cfg.Workers, 1)))

	sv, err := tg.serve(ctx, o, t, o.seconds-time.Since(start))
	if err != nil {
		return nil, nil, err
	}
	for n, v := range sv {
		values[n] = v
	}
	fmt.Fprintf(o.log, "%s traced: %d layer rounds, %.1fs\n", tg.name, len(rounds), time.Since(start).Seconds())
	return metrics(values), t, nil
}

// hitsPerJob is how many cache hits follow each fresh job in the traced
// serve and jobqueue streams.
const hitsPerJob = freshEvery - 1

// serveOneJob measures the serve and jobqueue layers on one job (a
// pipeline workload as a whole) followed by hitsPerJob cache hits, over
// HTTP and then in-process.
func serveOneJob(ctx context.Context, o options, t *tally, req jobqueue.Request) (map[string]float64, error) {
	srv, err := startServer(ctx, o.scratch+"/spool-trace")
	if err != nil {
		return nil, err
	}
	defer srv.close()
	var subs []submission
	for i := 0; i <= hitsPerJob; i++ {
		subs = append(subs, srv.submit(ctx, req, fmt.Sprintf("pb-%d-trace-%d", o.seed, i)))
	}
	var counts [5]int
	for i, s := range subs {
		counts[s.outcome]++
		t.attempted++
		want := outHit
		if i == 0 {
			want = outFresh
		}
		if s.err != nil || s.outcome != want || !bytes.Equal(s.body, subs[0].body) || s.suiteFP != subs[0].suiteFP {
			t.fail(1, "served job submission %d: %s, err %v, or result differs", i, outcomeNames[s.outcome], s.err)
		}
	}
	fmt.Fprintf(o.log, "served as one job: %s\n", outcomeLine(counts))
	if subs[0].err != nil {
		return nil, fmt.Errorf("served job: %w", subs[0].err)
	}
	j, err := srv.jobRecord(ctx, subs[0].jobID)
	if err != nil {
		return nil, err
	}
	var hitPost, results []float64
	for _, s := range subs {
		results = append(results, ms(s.result))
		if s.outcome == outHit {
			hitPost = append(hitPost, ms(s.post))
		}
	}
	values := map[string]float64{
		"serve.submit_fresh_ms":  ms(subs[0].post),
		"serve.submit_hit_ms":    median(hitPost),
		"serve.result_ms":        median(results),
		"serve.polls_per_fresh":  float64(subs[0].polls),
		"jobqueue.queue_wait_ms": ms(j.Started.Sub(j.Submitted)),
		"jobqueue.run_ms":        ms(j.Finished.Sub(j.Started)),
		"jobqueue.notify_lag_ms": ms(subs[0].completed.Sub(j.Finished)),
		"jobqueue.spool_mib":     dirMiB(srv.spool),
	}
	qs, err := runQueue(ctx, o.scratch+"/queue-trace", []jobqueue.Request{req}, hitsPerJob, t)
	if err != nil {
		return nil, err
	}
	qs.into(values)
	return values, nil
}

func (qs queueSamples) into(m map[string]float64) {
	m["jobqueue.submit_fresh_us"] = median(qs.fresh)
	m["jobqueue.submit_hit_us"] = median(qs.hit)
	m["jobqueue.result_us"] = median(qs.result)
}
