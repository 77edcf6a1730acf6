package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/fingerprint"
	"xbsim/internal/jobqueue"
	"xbsim/internal/program"
)

const (
	// freshEvery makes one submission in six new work; the other five
	// re-submit a spec whose result is done, so each is a cache hit.
	freshEvery = 6
	// serveSetups is how many server start + warm-up set-ups setup_s is
	// the median of.
	serveSetups = 9
)

// mixedWorkload sizes serve-mixed.
type mixedWorkload struct {
	// minFresh is the fresh-job count every untraced run completes, at
	// least: the fingerprint covers exactly the first minFresh specs, so
	// it is the same for every run of a seed.
	minFresh int
	// traceSpecs is how many stream specs the traced driver repeats
	// layer by layer; queueSpecs how many the traced in-process jobqueue
	// stream submits, each followed by hitsPerJob hits.
	traceSpecs, queueSpecs int
}

var serveMixed = mixedWorkload{minFresh: 40, traceSpecs: 6, queueSpecs: 8}

// specState is one stream spec's first result, shared by the hits that
// re-submit it.
type specState struct {
	done chan struct{}
	sub  submission // the first (fresh) submission's view
}

// mixedLoop is the serve-mixed closed loop: nproc clients each submit
// the next slot of a seed-determined stream once their previous
// submission has its result.
type mixedLoop struct {
	srv     *server
	seed    uint64
	clients int

	next atomic.Int64
	mu   sync.Mutex
	sts  map[int]*specState
	subs []slotSub
}

// slotSub is one completed slot of the stream.
type slotSub struct {
	slot  int
	fresh bool // the stream meant it as new work
	submission
}

// state returns spec f's shared state, creating it on first use; f < 0
// is the warm-up job, done before the loop starts.
func (l *mixedLoop) state(f int) *specState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.sts[f]
	if !ok {
		st = &specState{done: make(chan struct{})}
		l.sts[f] = st
	}
	return st
}

// target is the spec slot j submits: slot j of round f = j/freshEvery
// is spec f when it opens the round, else a hit on an earlier spec at
// least `clients` rounds back — or on the warm-up job, early on. A
// closed loop with `clients` clients can still be running that spec
// only if one submission outlasts several rounds; the client then waits
// for it before submitting, outside the timed latency.
func (l *mixedLoop) target(j int) (spec int, fresh bool) {
	f, k := j/freshEvery, j%freshEvery
	if k == 0 {
		return f, true
	}
	if t := f - l.clients - (k - 1); t >= 0 {
		return t, false
	}
	return -1, false
}

// request is the job request for spec f of the stream; f < 0 is the
// warm-up job.
func (l *mixedLoop) request(f int) jobqueue.Request {
	if f < 0 {
		return warmRequest()
	}
	return specRequest(program.RandomSpec(l.seed, f))
}

// warmRequest is the set-up's warm-up job: the quick five benchmarks
// at the per-job configuration. Named benchmarks are outside every
// stream of specs, and the job is the same for every seed, so setup_s
// and the accuracy metrics taken from it compare across seeds.
func warmRequest() jobqueue.Request {
	return jobqueue.Request{Benchmarks: experiment.QuickConfig().Benchmarks, Config: specJobConfig()}
}

// run drives the loop until d has passed and at least wantFresh fresh
// jobs have completed (or 2d + 30s has passed), then lets in-flight
// submissions finish.
func (l *mixedLoop) run(ctx context.Context, d time.Duration, wantFresh int) time.Duration {
	var freshDone atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && keepGoing(time.Since(start), d, freshDone.Load() < int64(wantFresh)) {
				j := int(l.next.Add(1) - 1)
				f, fresh := l.target(j)
				st := l.state(f)
				if !fresh {
					select {
					case <-st.done:
					case <-ctx.Done():
						return
					}
				}
				sub := l.srv.submit(ctx, l.request(f), fmt.Sprintf("pb-%d-%d", l.seed, j))
				if fresh {
					st.sub = sub
					close(st.done)
					if sub.err == nil {
						freshDone.Add(1)
					}
				}
				l.mu.Lock()
				l.subs = append(l.subs, slotSub{slot: j, fresh: fresh, submission: sub})
				l.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// keepGoing: the loop runs for d, then on until enough fresh jobs are
// done, but not past 2d + 30s.
func keepGoing(elapsed, d time.Duration, short bool) bool {
	return elapsed < d || (short && elapsed < 2*d+30*time.Second)
}

// check verifies every submission against the stream: fresh slots
// produce results, and every re-submission returns the first result's
// bytes and fingerprint.
func (l *mixedLoop) check(t *tally) (counts [5]int) {
	for _, s := range l.subs {
		counts[s.outcome]++
		t.attempted++
		if s.err != nil {
			t.fail(1, "slot %d: %v", s.slot, s.err)
			continue
		}
		if s.fresh {
			if s.suiteFP == "" {
				t.fail(1, "slot %d: result has no X-Suite-Fingerprint", s.slot)
			}
			continue
		}
		f, _ := l.target(s.slot)
		first := l.state(f).sub
		if s.outcome != outHit || !bytes.Equal(s.body, first.body) || s.suiteFP != first.suiteFP {
			t.fail(1, "slot %d: re-submission of spec %d was %s, or its result differs from the first", s.slot, f, outcomeNames[s.outcome])
		}
	}
	return counts
}

// freshJob is one completed fresh slot with its journaled stamps and
// decoded result.
type freshJob struct {
	spec     int
	sub      submission
	queued   time.Duration // Started - Submitted
	run      time.Duration // Finished - Started
	notified time.Duration // client completion - Finished
	export   *experiment.SuiteExport
}

// freshJobs reads back, after the loop, each fresh job's record and
// result, in spec order.
func (l *mixedLoop) freshJobs(ctx context.Context) ([]freshJob, error) {
	var out []freshJob
	for _, s := range l.subs {
		if !s.fresh || s.err != nil || s.outcome != outFresh {
			continue
		}
		j, err := l.srv.jobRecord(ctx, s.jobID)
		if err != nil {
			return nil, err
		}
		var e experiment.SuiteExport
		if err := json.Unmarshal(s.body, &e); err != nil {
			return nil, fmt.Errorf("job %s result: %w", s.jobID, err)
		}
		f, _ := l.target(s.slot)
		out = append(out, freshJob{spec: f, sub: s.submission, export: &e,
			queued: j.Started.Sub(j.Submitted), run: j.Finished.Sub(j.Started),
			notified: s.completed.Sub(j.Finished)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].spec < out[b].spec })
	return out, nil
}

// serveSetup starts a server on a fresh spool and completes the warm-up
// job, serveSetups times; all but the last server are closed. It
// returns the last server, its warm-up submission and the median set-up
// time.
func serveSetup(ctx context.Context, o options) (*server, submission, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		srv, err := startServer(ctx, filepath.Join(o.scratch, fmt.Sprintf("spool-%d", i)))
		if err != nil {
			return nil, submission{}, 0, err
		}
		sub := srv.submit(ctx, warmRequest(), fmt.Sprintf("pb-%d-warm-%d", o.seed, i))
		times = append(times, time.Since(start).Seconds())
		if sub.err != nil || sub.outcome != outFresh {
			srv.close()
			return nil, submission{}, 0, fmt.Errorf("warm-up job: %s: %v", outcomeNames[sub.outcome], sub.err)
		}
		if i == serveSetups-1 {
			return srv, sub, median(times), nil
		}
		if err := srv.close(); err != nil {
			return nil, submission{}, 0, err
		}
	}
}

// newMixedLoop sets up the server and the stream for a seed.
func newMixedLoop(ctx context.Context, o options) (*mixedLoop, float64, error) {
	srv, warmSub, setup, err := serveSetup(ctx, o)
	if err != nil {
		return nil, 0, err
	}
	done := make(chan struct{})
	close(done)
	return &mixedLoop{srv: srv, seed: o.seed, clients: runtime.NumCPU(),
		sts: map[int]*specState{-1: {done: done, sub: warmSub}}}, setup, nil
}

func (w mixedWorkload) run(ctx context.Context, o options) (map[string]metric, *tally, error) {
	if o.trace {
		return traceRun(ctx, o, w.traceTarget(o.seed))
	}
	l, setup, err := newMixedLoop(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	defer l.srv.close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wall := l.run(ctx, o.seconds, w.minFresh)
	runtime.ReadMemStats(&after)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	t := &tally{}
	counts := l.check(t)
	jobs, err := l.freshJobs(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(jobs) < w.minFresh || jobs[w.minFresh-1].spec != w.minFresh-1 {
		return nil, nil, fmt.Errorf("only %d of the first %d fresh jobs completed", len(jobs), w.minFresh)
	}
	var freshLat, hitLat []float64
	for _, s := range l.subs {
		switch {
		case s.err != nil:
		case s.fresh:
			freshLat = append(freshLat, ms(s.latency))
		case s.outcome == outHit:
			hitLat = append(hitLat, ms(s.latency))
		}
	}
	warmSub := l.state(-1).sub
	h := fingerprint.New()
	h.String(warmSub.suiteFP)
	for _, j := range jobs[:w.minFresh] {
		h.String(j.sub.suiteFP)
	}
	fp := h.Sum()
	checkFingerprint(t, "serve-mixed", o.seed, fp, 1)
	fmt.Fprintf(o.log, "serve-mixed: %d submissions in %.1fs (%s), fingerprint %s\n",
		len(l.subs), wall.Seconds(), outcomeLine(counts), fp)

	// suite_s and sim_mips are the service's: loop seconds per fresh
	// suite, and simulated instructions of the fresh suites per loop
	// second. Both span the whole loop. Per-job run walls, or a few
	// warm-up jobs on an idle server, follow the host's load over too
	// short a stretch and spread by 20–28% between runs.
	var instr float64
	for _, j := range jobs {
		instr += instructions(j.export)
	}
	// The accuracy metrics describe the warm-up job, the served
	// reference suite: the same for every seed.
	var warm experiment.SuiteExport
	if err := json.Unmarshal(warmSub.body, &warm); err != nil {
		return nil, nil, fmt.Errorf("warm-up result: %w", err)
	}
	values := map[string]float64{
		"setup_s":      setup,
		"suite_s":      wall.Seconds() / float64(len(jobs)),
		"sim_mips":     instr / 1e6 / wall.Seconds(),
		"alloc_mib":    mib(after.TotalAlloc-before.TotalAlloc) / float64(len(freshLat)),
		"jobs_per_s":   float64(len(l.subs)-t.failed) / wall.Seconds(),
		"fresh_p50_ms": median(freshLat),
		"fresh_p90_ms": quantile(freshLat, 0.9),
		"hit_p50_ms":   median(hitLat),
		"hit_p90_ms":   quantile(hitLat, 0.9),
	}
	accuracyOf(&warm).into(values)
	return metrics(values), t, nil
}

// layers is serve-mixed's traced serve part: the closed loop
// for the remaining budget, timed per request, then the same stream's
// head driven in-process on jobqueue.
func (w mixedWorkload) layers(ctx context.Context, o options, t *tally, budget time.Duration) (map[string]float64, error) {
	l, _, err := newMixedLoop(ctx, o)
	if err != nil {
		return nil, err
	}
	defer l.srv.close()
	// Leave a quarter of the budget for the in-process stream.
	l.run(ctx, budget*3/4, w.minFresh/2)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	counts := l.check(t)
	fmt.Fprintf(o.log, "serve-mixed traced loop: %d submissions (%s)\n", len(l.subs), outcomeLine(counts))
	jobs, err := l.freshJobs(ctx)
	if err != nil {
		return nil, err
	}
	var freshPost, hitPost, results, polls, queued, runs, notified []float64
	for _, s := range l.subs {
		if s.err != nil {
			continue
		}
		results = append(results, ms(s.result))
		if s.outcome == outHit {
			hitPost = append(hitPost, ms(s.post))
		}
	}
	for _, j := range jobs {
		freshPost = append(freshPost, ms(j.sub.post))
		polls = append(polls, float64(j.sub.polls))
		queued = append(queued, ms(j.queued))
		runs = append(runs, ms(j.run))
		notified = append(notified, ms(j.notified))
	}
	values := map[string]float64{
		"serve.submit_fresh_ms":  median(freshPost),
		"serve.submit_hit_ms":    median(hitPost),
		"serve.result_ms":        median(results),
		"serve.polls_per_fresh":  mean(polls),
		"jobqueue.queue_wait_ms": median(queued),
		"jobqueue.run_ms":        median(runs),
		"jobqueue.notify_lag_ms": median(notified),
		"jobqueue.spool_mib":     dirMiB(l.srv.spool),
	}
	var reqs []jobqueue.Request
	for i := 0; i < w.queueSpecs; i++ {
		reqs = append(reqs, l.request(i))
	}
	qs, err := runQueue(ctx, filepath.Join(o.scratch, "queue-trace"), reqs, hitsPerJob, t)
	if err != nil {
		return nil, err
	}
	qs.into(values)
	return values, nil
}
