package jobqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/faults"
	"xbsim/internal/obs"
	"xbsim/internal/pool"
)

// Admission and lifecycle errors.
var (
	// ErrQueueFull rejects a submission when the pending queue is at its
	// depth cap — the server maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("job queue full")
	// ErrDraining rejects submissions while the queue is shutting down.
	ErrDraining = errors.New("job queue draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("no such job")
	// ErrNoResult reports a job that has no result (not done yet, or
	// failed).
	ErrNoResult = errors.New("job has no result")
)

// Options configures a Queue.
type Options struct {
	// Dir is the spool directory (required).
	Dir string
	// Concurrency is the number of jobs executed in parallel (default 2).
	Concurrency int
	// MaxPending caps the pending queue depth; submissions beyond it are
	// rejected with ErrQueueFull (default 64).
	MaxPending int
	// Workers sizes the worker pool shared by every concurrent job's
	// pipeline (default GOMAXPROCS). One pool for the whole queue keeps
	// the process's compute bounded no matter how many suites run.
	Workers int
	// EventsCapacity bounds each job's flight recorder (default
	// obs.DefaultRecorderCapacity).
	EventsCapacity int
	// JournalMaxBytes caps each job's durable event journal before
	// rotation (default obs.DefaultJournalMaxBytes).
	JournalMaxBytes int64
	// Observer receives queue- and pipeline-level metrics (shared
	// registry across all jobs); may be nil.
	Observer *obs.Observer
}

// tracked is one job plus its in-process scheduling state.
type tracked struct {
	job      *Job
	events   *obs.Recorder      // per-job flight recorder, journaled to the spool
	tracer   *obs.Tracer        // per-job stage spans (this process's runs)
	enqueued time.Time          // when the job last entered pending (queue-wait)
	cancel   context.CancelFunc // non-nil while running
	// landed maps each trace a duplicate submission linked in this
	// process to a channel closed once its link-log append is done, so a
	// concurrent submission under the same trace can wait for it.
	landed map[string]chan struct{}
}

// Queue is the durable bounded job scheduler. Open recovers journaled
// state from the spool; Submit admits content-addressed jobs; a fixed
// set of scheduler slots executes them over one shared worker pool;
// Drain stops admission and re-spools interrupted work; Kill simulates
// a crash for tests.
type Queue struct {
	opts   Options
	spool  *Spool
	o      *obs.Observer
	shared *pool.Pool
	base   context.Context // base context: faults injector, cancellation

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*tracked
	traces   map[string]string // trace ID (canonical or coalesced) → job ID
	pending  []*tracked        // FIFO of jobs awaiting a slot
	running  int
	draining bool
	killed   bool
	stopped  bool
	// lastDurMs is a crude EWMA of job wall clock, feeding Retry-After.
	lastDurMs float64

	wg sync.WaitGroup
	// dups counts duplicate submissions still doing their link append
	// and journal event after releasing q.mu; Drain and Kill wait for
	// them.
	dups sync.WaitGroup
}

// Open opens the spool, recovers journaled jobs (running → pending,
// counted in serve.jobs.recovered), and starts the scheduler. ctx is
// the base context every job runs under: cancel it to abort all work;
// attach a faults.Injector to it to exercise the serve.crash hooks.
func Open(ctx context.Context, opts Options) (*Queue, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobqueue: Options.Dir required")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 2
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	sp, err := OpenSpool(opts.Dir)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		opts:   opts,
		spool:  sp,
		o:      opts.Observer,
		shared: pool.New(opts.Workers),
		base:   ctx,
		jobs:   map[string]*tracked{},
		traces: map[string]string{},
	}
	q.cond = sync.NewCond(&q.mu)
	if q.o != nil {
		q.shared.Instrument(pool.Metrics{
			Tasks:     q.o.Counter("pool.tasks"),
			Busy:      q.o.Gauge("pool.busy_workers"),
			BusyPeak:  q.o.Gauge("pool.busy_peak"),
			QueueWait: q.o.Histogram("pool.queue_wait_us"),
		})
	}

	jobs, loadErrs := sp.Load()
	if err := sp.repairLinks(); err != nil {
		loadErrs = append(loadErrs, err)
	}
	for _, e := range loadErrs {
		q.emitQueue("recovery: " + e.Error())
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Submitted.Before(jobs[k].Submitted) })
	for _, j := range jobs {
		t := q.track(j)
		switch j.State {
		case StateRunning:
			// In flight when the process died: re-enqueue. The per-job
			// checkpoint dir makes the re-run skip completed benchmarks.
			j.State = StatePending
			if err := sp.Move(j, StateRunning, StatePending); err != nil {
				return nil, err
			}
			q.o.Counter("serve.jobs.recovered").Inc()
			t.events.Record(obs.PipelineEvent{Kind: "job.recover", Detail: "recovered: re-enqueued after crash"})
			t.enqueued = time.Now()
			q.pending = append(q.pending, t)
		case StatePending:
			t.enqueued = time.Now()
			q.pending = append(q.pending, t)
		case StateDone:
			// A done job without its result file cannot serve cache hits;
			// re-run it (defensive — the commit order makes this unreachable
			// without manual spool surgery).
			if _, err := os.Stat(sp.ResultPath(j.ID)); err != nil {
				j.State = StatePending
				if err := sp.Move(j, StateDone, StatePending); err != nil {
					return nil, err
				}
				t.enqueued = time.Now()
				q.pending = append(q.pending, t)
			}
		}
	}
	q.o.Gauge("serve.queue.slots").Set(float64(opts.Concurrency))
	q.o.Gauge("serve.queue.max_pending").Set(float64(opts.MaxPending))
	q.syncGauges()

	q.wg.Add(opts.Concurrency)
	for i := 0; i < opts.Concurrency; i++ {
		go func() {
			defer q.wg.Done()
			q.worker()
		}()
	}
	return q, nil
}

// Spool exposes the queue's spool (read-only use: result paths, dirs).
func (q *Queue) Spool() *Spool { return q.spool }

// track wires a job's in-process state: a private flight recorder
// stamped with the job's canonical trace and durably journaled to the
// spool (appending across restarts, so a timeline spans crashes), and a
// private tracer for this process's stage spans. A journal that fails
// to open costs durability of the event view, never the job.
func (q *Queue) track(j *Job) *tracked {
	t := &tracked{job: j, events: obs.NewRecorder(q.opts.EventsCapacity), tracer: obs.NewTracer(),
		landed: map[string]chan struct{}{}}
	t.events.SetTrace(j.TraceID)
	t.events.SetRotationCounter(q.o.Counter("serve.journal.rotations"))
	if err := t.events.SetOutputPath(q.spool.JournalPath(j.ID), q.opts.JournalMaxBytes); err != nil {
		q.emitQueue("journal open failed: " + err.Error())
	}
	q.jobs[j.ID] = t
	if j.TraceID != "" {
		q.traces[j.TraceID] = j.ID
	}
	for _, tr := range j.CoalescedTraces {
		q.traces[tr] = j.ID
	}
	return t
}

// emitQueue records a queue-level event on the shared observer.
func (q *Queue) emitQueue(detail string) {
	q.o.Emit(obs.PipelineEvent{Kind: "serve", Detail: detail})
}

// syncGauges publishes queue health — depths plus the EWMA-derived
// Retry-After estimate, so backlog pressure is visible on /metrics
// before admission starts returning 429s; callers hold q.mu.
func (q *Queue) syncGauges() {
	q.o.Gauge("serve.queue.pending").Set(float64(len(q.pending)))
	q.o.Gauge("serve.queue.running").Set(float64(q.running))
	q.o.Gauge("serve.queue.retry_after_sec").Set(float64(q.retryAfterLocked()))
}

// Submit admits a request. The request is validated, canonicalized, and
// content-addressed; the returned Job reflects the resulting state:
//
//   - new work: journaled pending, scheduled; cached == false.
//   - already pending/running: coalesced onto the existing job
//     (serve.cache.coalesced); cached == false.
//   - already done: a cache hit (serve.cache.hits) — the stored result
//     is served without running anything; cached == true.
//   - previously failed: re-enqueued for another attempt.
//
// ErrQueueFull (pending depth cap) and ErrDraining reject admission.
//
// Submit mints a fresh trace for the submission; SubmitTraced accepts
// caller-supplied trace correlation metadata.
func (q *Queue) Submit(req Request) (*Job, bool, error) {
	return q.SubmitTraced(req, Submission{})
}

// SubmitTraced is Submit with explicit per-submission metadata: a trace
// ID (minted when empty) and a tenant label. Neither participates in
// the job's content-addressed identity. When the submission lands on an
// existing job (coalesce or cache hit), the incoming trace is linked
// onto the canonical job — durably, in the spool's link log, before
// SubmitTraced returns — and the canonical job is returned; the caller
// reads Job.TraceID for the canonical trace.
func (q *Queue) SubmitTraced(req Request, sub Submission) (*Job, bool, error) {
	lookup := time.Now()
	if err := req.Validate(); err != nil {
		return nil, false, err
	}
	req.normalize()
	id, err := req.ID()
	if err != nil {
		return nil, false, err
	}
	sub.TraceID = obs.SanitizeTraceID(sub.TraceID)
	if sub.TraceID == "" {
		sub.TraceID = obs.NewTraceID()
	}
	sub.Tenant = obs.SanitizeTraceID(sub.Tenant)
	if sub.Tenant == "" {
		sub.Tenant = "default"
	}

	q.mu.Lock()
	if q.draining || q.stopped || q.killed {
		q.mu.Unlock()
		q.o.Counter("serve.rejected").Inc()
		return nil, false, ErrDraining
	}
	t, ok := q.jobs[id]
	if ok && t.job.State != StateFailed {
		// A duplicate: a cache hit on a done job, or a coalesce onto a
		// pending or running one. Only the in-memory link is made under
		// the lock; its I/O runs after the lock is released.
		cached := t.job.State == StateDone
		if cached {
			q.o.Counter("serve.cache.hits").Inc()
		} else {
			q.o.Counter("serve.cache.coalesced").Inc()
		}
		q.o.Counter(obs.LabeledName("serve.tenant.submissions", "tenant", sub.Tenant)).Inc()
		linked := q.link(t, sub.TraceID)
		landed := t.landed[sub.TraceID]
		if linked {
			landed = make(chan struct{})
			t.landed[sub.TraceID] = landed
		}
		job := t.job.clone()
		q.dups.Add(1)
		q.mu.Unlock()
		defer q.dups.Done()
		q.recordDuplicate(t, job, sub.TraceID, cached, linked, landed, lookup)
		return job, cached, nil
	}
	defer q.mu.Unlock()
	if ok {
		// Previously failed: re-enqueue for another attempt under the
		// same identity. The canonical trace stays with the job; the
		// resubmission's trace is linked.
		if len(q.pending) >= q.opts.MaxPending {
			q.o.Counter("serve.rejected").Inc()
			return nil, false, ErrQueueFull
		}
		t.job.State = StatePending
		t.job.Error = ""
		q.link(t, sub.TraceID)
		if err := q.spool.Move(t.job, StateFailed, StatePending); err != nil {
			return nil, false, err
		}
		q.o.Counter("serve.jobs.submitted").Inc()
		q.o.Counter(obs.LabeledName("serve.tenant.submissions", "tenant", sub.Tenant)).Inc()
		t.events.Record(obs.PipelineEvent{Kind: "job.resubmit", Trace: sub.TraceID, Detail: "resubmitted after failure"})
		t.enqueued = time.Now()
		q.pending = append(q.pending, t)
		q.syncGauges()
		q.cond.Signal()
		return t.job.clone(), false, nil
	}
	if len(q.pending) >= q.opts.MaxPending {
		q.o.Counter("serve.rejected").Inc()
		return nil, false, ErrQueueFull
	}
	j := &Job{ID: id, Request: req, Submitted: time.Now(), State: StatePending,
		TraceID: sub.TraceID, Tenant: sub.Tenant}
	if err := q.spool.Write(StatePending, j); err != nil {
		return nil, false, err
	}
	t = q.track(j)
	t.enqueued = time.Now()
	q.pending = append(q.pending, t)
	q.o.Counter("serve.jobs.submitted").Inc()
	q.o.Counter(obs.LabeledName("serve.tenant.submissions", "tenant", sub.Tenant)).Inc()
	t.events.Record(obs.PipelineEvent{Kind: "job.submit", Detail: "submitted by " + sub.Tenant})
	q.syncGauges()
	q.cond.Signal()
	return j.clone(), false, nil
}

// recordDuplicate finishes a cache hit or coalesce without q.mu: it
// appends the new link (if linked) to the spool's link log, closing
// landed, and journals the job.cache/job.coalesce event under the
// submitting trace. A submission whose trace a concurrent one linked
// waits on that one's landed instead, so either response means "link on
// disk". The append needs only the job ID and the trace, so it cannot
// race the shared Job. A hit's admission-to-here time is
// serve.cache_lookup_us.
func (q *Queue) recordDuplicate(t *tracked, job *Job, trace string, cached, linked bool, landed chan struct{}, lookup time.Time) {
	if linked {
		if err := q.spool.AppendLink(job.ID, trace); err != nil {
			q.emitQueue("trace link journal failed: " + err.Error())
		}
		close(landed)
	} else if landed != nil {
		<-landed
	}
	if !cached {
		t.events.Record(obs.PipelineEvent{Kind: "job.coalesce", Trace: trace,
			Detail: "coalesced onto in-flight job; canonical trace " + job.TraceID})
		return
	}
	t.events.Record(obs.PipelineEvent{Kind: "job.cache", Trace: trace,
		Detail: "cache hit; canonical trace " + job.TraceID})
	q.o.Histogram("serve.cache_lookup_us").Observe(uint64(time.Since(lookup).Microseconds()))
}

// link records a coalesced submission's trace on the canonical job in
// memory only, reporting whether it was new; callers hold q.mu and
// persist the link themselves (AppendLink, or a Move that writes the
// whole record).
func (q *Queue) link(t *tracked, traceID string) bool {
	if !t.job.addLink(traceID) {
		return false
	}
	q.traces[traceID] = t.job.ID
	return true
}

// next blocks until a pending job is available or the queue is
// stopping; nil means "worker, exit".
func (q *Queue) next() *tracked {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.stopped || q.killed || q.draining {
			return nil
		}
		if len(q.pending) > 0 {
			t := q.pending[0]
			q.pending = q.pending[1:]
			q.running++
			q.syncGauges()
			return t
		}
		q.cond.Wait()
	}
}

func (q *Queue) worker() {
	for {
		t := q.next()
		if t == nil {
			return
		}
		q.runJob(t)
		q.mu.Lock()
		q.running--
		q.syncGauges()
		q.mu.Unlock()
	}
}

// crashed reports whether the queue has been killed (by Kill or a
// serve.crash fault) — after which no journal write may happen, exactly
// as if the process had died.
func (q *Queue) crashed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.killed
}

// runJob executes one job end to end: journal pending→running, run the
// pipeline suite with the job's private observer and checkpoint dir,
// persist the result, journal running→done (or →failed / re-spool
// →pending on drain). The serve.crash fault stage fires at two
// crash-simulation points: before the run starts, and inside the
// durability window after the result is written but before the done
// commit — recovery must get both right.
func (q *Queue) runJob(t *tracked) {
	j := t.job
	if err := faults.Hit(q.base, "serve.crash"); err != nil {
		// Simulated process death before the run: leave the journal
		// untouched (job stays pending on disk) and stop the world.
		q.kill()
		return
	}

	start := time.Now()
	q.mu.Lock()
	j.State = StateRunning
	j.Started = start
	j.Attempts++
	attempts := j.Attempts
	queueWait := time.Duration(0)
	if !t.enqueued.IsZero() {
		queueWait = start.Sub(t.enqueued)
	}
	// Journal writes below marshal a mu-consistent clone: Submit may
	// concurrently link a coalesced trace onto the shared Job under
	// q.mu, and marshaling the live struct outside the lock would race.
	snap := j.clone()
	q.mu.Unlock()
	if err := q.spool.Move(snap, StatePending, StateRunning); err != nil {
		q.failJob(t, start, fmt.Errorf("journal: %w", err), StatePending)
		return
	}
	q.o.Histogram("serve.queue_wait_ms").Observe(uint64(queueWait.Milliseconds()))
	t.events.Record(obs.PipelineEvent{Kind: "job.start",
		Detail: fmt.Sprintf("started (attempt %d) after %dms queue wait", attempts, queueWait.Milliseconds())})

	// Per-job observer: the metrics registry is shared queue-wide (the
	// /metrics view aggregates all jobs), while the flight recorder and
	// tracer are private so /jobs/{id}/events and the timeline carry
	// only this job's pipeline. The job's canonical trace rides the
	// context into the experiment layer.
	var jo *obs.Observer
	if q.o != nil {
		jo = &obs.Observer{Metrics: q.o.Metrics, Events: t.events, Tracer: t.tracer}
	} else {
		jo = &obs.Observer{Events: t.events, Tracer: t.tracer}
	}
	jctx, cancel := context.WithCancel(obs.WithTraceID(obs.With(q.base, jo), j.TraceID))
	defer cancel()
	if sec := j.Request.TimeoutSec; sec > 0 {
		var tcancel context.CancelFunc
		jctx, tcancel = context.WithTimeout(jctx, time.Duration(sec)*time.Second)
		defer tcancel()
	}
	// Drain and Kill cancel through the parent; the deadline (if any)
	// expires through the child — jctx.Err() tells the two apart.
	q.mu.Lock()
	t.cancel = cancel
	q.mu.Unlock()

	cfg := j.Request.Config
	cfg.CheckpointDir = q.spool.CheckpointDir(j.ID)
	cfg.SharedPool = q.shared
	var suite *experiment.Suite
	// Protect isolates a panicking pipeline into a *pool.PanicError: one
	// broken job fails, the queue survives.
	err := pool.Protect(func() error {
		var rerr error
		if len(j.Request.Specs) > 0 {
			suite, rerr = experiment.RunSpecsCtx(jctx, j.Request.Specs, cfg)
		} else {
			suite, rerr = experiment.RunCtx(jctx, cfg)
		}
		return rerr
	})
	q.mu.Lock()
	t.cancel = nil
	q.mu.Unlock()

	if q.crashed() {
		// Kill semantics: the process is "dead" — no journal writes. The
		// running/ entry stays behind for the next Open to recover.
		return
	}
	if err != nil && jctx.Err() == context.Canceled && q.isDraining() {
		// Drain interrupted the run. Completed benchmarks are already
		// checkpointed; re-spool so the next Open resumes from them.
		q.mu.Lock()
		j.State = StatePending
		snap = j.clone()
		q.mu.Unlock()
		if merr := q.spool.Move(snap, StateRunning, StatePending); merr != nil {
			q.emitQueue("drain re-spool failed: " + merr.Error())
		}
		q.o.Counter("serve.jobs.respooled").Inc()
		t.events.Record(obs.PipelineEvent{Kind: "job.respool", Detail: "interrupted by drain: re-spooled"})
		return
	}
	if err != nil {
		q.failJob(t, start, err, StateRunning)
		return
	}

	var buf bytes.Buffer
	if werr := suite.WriteJSON(&buf); werr != nil {
		q.failJob(t, start, fmt.Errorf("rendering result: %w", werr), StateRunning)
		return
	}
	if werr := q.spool.WriteResult(j.ID, buf.Bytes()); werr != nil {
		q.failJob(t, start, fmt.Errorf("persisting result: %w", werr), StateRunning)
		return
	}
	// The durability window: the result is on disk but the job is still
	// journaled running. A crash here must recover to a done-equivalent
	// state by re-running (cheap: every benchmark checkpoint hits).
	if ferr := faults.Hit(q.base, "serve.crash"); ferr != nil {
		q.kill()
		return
	}
	// Commit done to disk and journal job.done before the job reads as
	// done, so whoever sees it done (Get, Result, a cache hit) also finds
	// the done record and the job.done event. The snapshot is cloned
	// under q.mu because Submit may link a coalesced trace onto the
	// shared Job; a link made after the clone is in the link log.
	q.mu.Lock()
	snap = j.clone()
	q.mu.Unlock()
	snap.State = StateDone
	snap.Finished = time.Now()
	snap.SuiteFingerprint = suite.Fingerprint()
	if merr := q.spool.Move(snap, StateRunning, StateDone); merr != nil {
		q.emitQueue("done commit failed: " + merr.Error())
	}
	t.events.Record(obs.PipelineEvent{Kind: "job.done", Detail: "done: " + snap.SuiteFingerprint})
	q.mu.Lock()
	defer q.mu.Unlock()
	j.State = StateDone
	j.Finished = snap.Finished
	j.SuiteFingerprint = snap.SuiteFingerprint
	q.observeDuration(j.Finished.Sub(start))
	// Count the completion in the same critical section that flips the
	// state, so a client holding the result also finds it in the
	// counters and histograms.
	q.o.Counter("serve.jobs.completed").Inc()
	q.o.Counter(obs.LabeledName("serve.tenant.completed", "tenant", snap.Tenant)).Inc()
	q.o.Histogram("serve.job_duration_ms").Observe(uint64(time.Since(start).Milliseconds()))
	// SLO latency histograms: run is this (final) attempt's execution;
	// submit-to-result is end to end from the first admission — across
	// crash recovery, it includes the dead process's time, which is
	// exactly what a waiting client experienced.
	q.o.Histogram("serve.run_ms").Observe(uint64(snap.Finished.Sub(snap.Started).Milliseconds()))
	q.o.Histogram("serve.submit_to_result_ms").Observe(uint64(snap.Finished.Sub(snap.Submitted).Milliseconds()))
}

// failJob journals a terminal failure from whichever state the job was
// journaled in.
func (q *Queue) failJob(t *tracked, start time.Time, err error, from State) {
	j := t.job
	q.mu.Lock()
	j.State = StateFailed
	j.Finished = time.Now()
	j.Error = err.Error()
	q.observeDuration(j.Finished.Sub(start))
	snap := j.clone()
	q.mu.Unlock()
	if merr := q.spool.Move(snap, from, StateFailed); merr != nil {
		q.emitQueue("fail commit failed: " + merr.Error())
	}
	q.o.Counter("serve.jobs.failed").Inc()
	q.o.Counter(obs.LabeledName("serve.tenant.failed", "tenant", snap.Tenant)).Inc()
	// A panicking pipeline task is worth its own trace-stamped event:
	// the timeline should show where in the pool the job blew up.
	var pe *pool.PanicError
	if errors.As(err, &pe) {
		t.events.Record(obs.PipelineEvent{Kind: "panic",
			Detail: fmt.Sprintf("pool task %d panicked: %v", pe.Index, pe.Value)})
	}
	t.events.Record(obs.PipelineEvent{Kind: "job.fail", Detail: "failed: " + err.Error()})
}

// observeDuration updates the EWMA job duration; callers hold q.mu.
func (q *Queue) observeDuration(d time.Duration) {
	ms := float64(d.Milliseconds())
	if q.lastDurMs == 0 {
		q.lastDurMs = ms
	} else {
		q.lastDurMs = 0.7*q.lastDurMs + 0.3*ms
	}
}

func (q *Queue) isDraining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Get returns a snapshot of the job, or ErrNotFound.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return t.job.clone(), nil
}

// List returns snapshots of every known job, oldest submission first
// (ties broken by ID for determinism).
func (q *Queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.jobs))
	for _, t := range q.jobs {
		out = append(out, t.job.clone())
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Submitted.Equal(out[k].Submitted) {
			return out[i].Submitted.Before(out[k].Submitted)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Events returns the job's flight recorder — the live, per-job event
// stream /jobs/{id}/events serves — or ErrNotFound.
func (q *Queue) Events(id string) (*obs.Recorder, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return t.events, nil
}

// Timeline reconstructs one job's end-to-end view: the durable journal
// (merged rotated + live generations, so it spans crash recovery) plus
// this process's stage spans, merged and phase-annotated by
// obs.BuildTimeline. key is a job ID, the job's canonical trace ID, or
// any coalesced submission's trace ID. ErrNotFound for unknown keys.
func (q *Queue) Timeline(key string) (*obs.Timeline, error) {
	q.mu.Lock()
	t, ok := q.jobs[key]
	if !ok {
		if id, traced := q.traces[key]; traced {
			t, ok = q.jobs[id]
		}
	}
	if !ok {
		q.mu.Unlock()
		return nil, ErrNotFound
	}
	job := t.job.clone()
	q.mu.Unlock()

	t.events.Flush()
	evs, err := obs.ReadJournal(q.spool.JournalPath(job.ID))
	if err != nil {
		q.emitQueue("journal read failed: " + err.Error())
	}
	if len(evs) == 0 {
		// Journal never opened (open failure at track time): the in-memory
		// ring is the best remaining record.
		evs = t.events.Events()
	}
	return obs.BuildTimeline(obs.TimelineInput{
		TraceID:   job.TraceID,
		JobID:     job.ID,
		Tenant:    job.Tenant,
		State:     string(job.State),
		Links:     job.CoalescedTraces,
		Events:    evs,
		Spans:     t.tracer.Spans(),
		SpanEpoch: t.tracer.Epoch(),
	}), nil
}

// Result returns the job's stored result bytes — the exact
// Suite.WriteJSON output persisted at completion. ErrNotFound for
// unknown jobs; ErrNoResult for jobs that are not done.
func (q *Queue) Result(id string) ([]byte, error) {
	q.mu.Lock()
	t, ok := q.jobs[id]
	var st State
	if ok {
		st = t.job.State
	}
	q.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if st != StateDone {
		return nil, fmt.Errorf("%w (state %s)", ErrNoResult, st)
	}
	return q.spool.ReadResult(id)
}

// Stats is a point-in-time queue summary.
type Stats struct {
	Pending   int     `json:"pending"`
	Running   int     `json:"running"`
	Done      int     `json:"done"`
	Failed    int     `json:"failed"`
	Draining  bool    `json:"draining"`
	AvgJobMs  float64 `json:"avgJobMs"`
	MaxQueue  int     `json:"maxQueue"`
	Slots     int     `json:"slots"`
	CacheHits uint64  `json:"cacheHits"`
}

// Stats snapshots queue state (for /healthz and Retry-After).
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{
		Pending:  len(q.pending),
		Running:  q.running,
		Draining: q.draining || q.stopped,
		AvgJobMs: q.lastDurMs,
		MaxQueue: q.opts.MaxPending,
		Slots:    q.opts.Concurrency,
	}
	for _, t := range q.jobs {
		switch t.job.State {
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		}
	}
	if q.o != nil {
		s.CacheHits = q.o.Counter("serve.cache.hits").Value()
	}
	return s
}

// RetryAfter estimates, in whole seconds (>= 1), how long a rejected
// client should wait before resubmitting: the time for the current
// backlog to drain through the scheduler slots at the observed average
// job duration (or a flat default before any job has finished).
func (q *Queue) RetryAfter() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retryAfterLocked()
}

// retryAfterLocked computes the Retry-After estimate; callers hold
// q.mu. The same value feeds the serve.queue.retry_after_sec gauge on
// every queue transition.
func (q *Queue) retryAfterLocked() int {
	avg := q.lastDurMs
	if avg <= 0 {
		avg = 2000
	}
	backlog := float64(len(q.pending)+q.running) / float64(q.opts.Concurrency)
	sec := int(backlog * avg / 1000)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Drain gracefully shuts the queue down: admission closes immediately
// (Submit returns ErrDraining), idle workers exit, running jobs are
// canceled — their completed benchmarks are already checkpointed — and
// re-spooled to pending so the next Open resumes them. Drain returns
// when every worker has exited, or with ctx's error if it expires
// first.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if q.stopped || q.killed {
		q.mu.Unlock()
		return nil
	}
	q.draining = true
	for _, t := range q.jobs {
		if t.cancel != nil {
			t.cancel()
		}
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	q.emitQueue("draining: admission closed")

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		q.dups.Wait()
		close(done)
	}()
	select {
	case <-done:
		q.mu.Lock()
		q.stopped = true
		ts := make([]*tracked, 0, len(q.jobs))
		for _, t := range q.jobs {
			ts = append(ts, t)
		}
		q.mu.Unlock()
		// Graceful shutdown closes every job journal; Kill deliberately
		// does not (a dead process closes nothing).
		for _, t := range ts {
			t.events.CloseOutput()
		}
		q.emitQueue("drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// kill flips the killed flag and aborts running work without waiting —
// callable from inside a worker (the serve.crash fault path).
func (q *Queue) kill() {
	q.mu.Lock()
	if q.killed {
		q.mu.Unlock()
		return
	}
	q.killed = true
	for _, t := range q.jobs {
		if t.cancel != nil {
			t.cancel()
		}
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Kill simulates `kill -9`: every worker stops where it is and no
// further journal or result write happens, leaving the spool exactly as
// a process death would. The in-memory queue is unusable afterward; a
// new Open on the same spool performs recovery. Test hook — a real
// crash needs no call. Kill returns once every worker and every
// duplicate submission in flight has finished.
func (q *Queue) Kill() {
	q.kill()
	q.wg.Wait()
	q.dups.Wait()
}

// Killed reports whether the queue has died (Kill, or a serve.crash
// fault firing).
func (q *Queue) Killed() bool {
	return q.crashed()
}

// Close is Drain with a generous deadline — the normal shutdown path.
func (q *Queue) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return q.Drain(ctx)
}
