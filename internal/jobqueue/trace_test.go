package jobqueue

import (
	"context"
	"errors"
	"testing"
	"time"

	"xbsim/internal/faults"
	"xbsim/internal/obs"
)

// An explicit trace must ride admission → spool → recovery: after a
// mid-run kill and a restart on the same spool, the recovered job keeps
// the original trace, and one timeline holds the original admission,
// the recovery transition, and the completed run's stage events — all
// under that trace.
func TestTraceSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	// Two benchmarks: the first's checkpoint signals mid-run, the second
	// is still in flight when Kill strikes — held there by a hang in its
	// evaluate stage, so the recovery always has a benchmark to run.
	req := benchRequest("mcf", "gzip")
	const trace = "t-client-supplied"
	rules, err := faults.ParseRules("evaluate@1:hang")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(faults.With(context.Background(), faults.NewInjector(rules...)))
	defer cancel()

	q := openQueue(t, ctx, dir, obs.New())
	j, cached, err := q.SubmitTraced(req, Submission{TraceID: trace, Tenant: "acme"})
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	if j.TraceID != trace || j.Tenant != "acme" {
		t.Fatalf("admitted job trace=%q tenant=%q", j.TraceID, j.Tenant)
	}
	// Kill once the run is in flight (first checkpoint exists).
	scope := q.Spool().CheckpointDir(j.ID)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if countCheckpoints(t, scope) >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	q.Kill()
	if n := countCheckpoints(t, scope); n != 1 {
		t.Fatalf("%d checkpoints at the kill, want 1", n)
	}

	q2 := openQueue(t, context.Background(), dir, obs.New())
	defer q2.Close()
	done := waitState(t, q2, j.ID, StateDone)
	if done.TraceID != trace {
		t.Fatalf("recovered job trace = %q, want %q (trace must survive the spool)", done.TraceID, trace)
	}
	if done.Tenant != "acme" {
		t.Fatalf("recovered job tenant = %q", done.Tenant)
	}

	// One timeline, resolvable by job ID or by trace, spanning the crash.
	tl, err := q2.Timeline(trace)
	if err != nil {
		t.Fatal(err)
	}
	if tl.JobID != j.ID || tl.TraceID != trace {
		t.Fatalf("timeline ids = job %q trace %q", tl.JobID, tl.TraceID)
	}
	kinds := map[string]int{}
	for _, e := range tl.Entries {
		kinds[e.Kind]++
		if e.Source == "event" && e.Trace != trace {
			t.Fatalf("journal entry %q carries trace %q, want %q", e.Kind, e.Trace, trace)
		}
	}
	for _, k := range []string{"job.submit", "job.recover", "job.start", "job.done", "stage.start"} {
		if kinds[k] == 0 {
			t.Fatalf("timeline missing %s entries; kinds = %v", k, kinds)
		}
	}
	// Both lifetimes' job.start survive in the journal: the killed
	// attempt's and the recovery's.
	if kinds["job.start"] < 2 {
		t.Fatalf("timeline has %d job.start entries, want both lifetimes'", kinds["job.start"])
	}
	if kinds["span"] == 0 {
		t.Fatal("timeline has no stage spans from the recovering process")
	}
	// Phases: the recovery opens a second queue-wait; the completed run
	// closes a run phase.
	var waits int
	for _, p := range tl.Phases {
		if p.Name == "queue-wait" {
			waits++
		}
	}
	if waits < 2 {
		t.Fatalf("%d queue-wait phases, want admission + recovery", waits)
	}
	if tl.Phase("run") == nil {
		t.Fatal("no run phase")
	}
}

// Duplicate submissions must link their traces onto the canonical job —
// durably — and the timeline must resolve by any linked trace.
func TestCoalescedAndCachedTracesLink(t *testing.T) {
	o := obs.New()
	q := openQueue(t, context.Background(), t.TempDir(), o)
	defer q.Close()

	req := benchRequest("mcf")
	j, _, err := q.SubmitTraced(req, Submission{TraceID: "t-first"})
	if err != nil {
		t.Fatal(err)
	}
	// Same work again while pending/running: coalesce, not a new job.
	j2, cached, err := q.SubmitTraced(req, Submission{TraceID: "t-second", Tenant: "beta"})
	if err != nil || cached {
		t.Fatalf("coalesce submit: cached=%v err=%v", cached, err)
	}
	if j2.ID != j.ID || j2.TraceID != "t-first" {
		t.Fatalf("coalesced job = %s trace %q, want canonical %s t-first", j2.ID, j2.TraceID, j.ID)
	}
	if len(j2.CoalescedTraces) != 1 || j2.CoalescedTraces[0] != "t-second" {
		t.Fatalf("CoalescedTraces = %v", j2.CoalescedTraces)
	}

	waitState(t, q, j.ID, StateDone)
	// Cache hit after done links too.
	j3, cached, err := q.SubmitTraced(req, Submission{TraceID: "t-third"})
	if err != nil || !cached {
		t.Fatalf("cache submit: cached=%v err=%v", cached, err)
	}
	if j3.TraceID != "t-first" {
		t.Fatalf("cached response trace = %q", j3.TraceID)
	}

	// Any linked trace resolves to the one job's timeline.
	for _, key := range []string{j.ID, "t-first", "t-second", "t-third"} {
		tl, err := q.Timeline(key)
		if err != nil {
			t.Fatalf("Timeline(%q): %v", key, err)
		}
		if tl.JobID != j.ID {
			t.Fatalf("Timeline(%q) resolved job %q", key, tl.JobID)
		}
	}
	tl, _ := q.Timeline(j.ID)
	links := map[string]bool{}
	for _, l := range tl.Links {
		links[l] = true
	}
	if !links["t-second"] || !links["t-third"] {
		t.Fatalf("timeline links = %v, want t-second and t-third", tl.Links)
	}
	if tl.Phase("cache-lookup") == nil {
		t.Fatal("cache hit left no cache-lookup phase")
	}
	// The coalesce and cache events keep the submitting trace.
	var sawCoalesce, sawCache bool
	for _, e := range tl.Entries {
		switch e.Kind {
		case "job.coalesce":
			sawCoalesce = e.Trace == "t-second"
		case "job.cache":
			sawCache = e.Trace == "t-third"
		}
	}
	if !sawCoalesce || !sawCache {
		t.Fatalf("coalesce/cache rows mis-traced (coalesce=%v cache=%v)", sawCoalesce, sawCache)
	}

	if _, err := q.Timeline("t-unknown"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown key error = %v, want ErrNotFound", err)
	}

	// Per-tenant accounting saw all three submissions.
	snap := o.Metrics.Snapshot()
	def := snap.Counters[obs.LabeledName("serve.tenant.submissions", "tenant", "default")]
	beta := snap.Counters[obs.LabeledName("serve.tenant.submissions", "tenant", "beta")]
	if def != 2 || beta != 1 {
		t.Fatalf("tenant submissions default=%d beta=%d, want 2 and 1", def, beta)
	}
	if got := snap.Counters[obs.LabeledName("serve.tenant.completed", "tenant", "default")]; got != 1 {
		t.Fatalf("tenant completed = %d, want 1", got)
	}
}

// A completed job must populate the SLO latency histograms and the
// queue-health gauges.
func TestSLOHistogramsAndQueueGauges(t *testing.T) {
	o := obs.New()
	q := openQueue(t, context.Background(), t.TempDir(), o)
	defer q.Close()

	j, _, err := q.Submit(benchRequest("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if j.TraceID == "" {
		t.Fatal("Submit minted no trace")
	}
	waitState(t, q, j.ID, StateDone)

	snap := o.Metrics.Snapshot()
	for _, name := range []string{"serve.queue_wait_ms", "serve.run_ms", "serve.submit_to_result_ms"} {
		h := snap.Histograms[name]
		if h.Count != 1 {
			t.Fatalf("%s count = %d, want 1", name, h.Count)
		}
	}
	// run <= submit-to-result, always.
	run := snap.Histograms["serve.run_ms"]
	e2e := snap.Histograms["serve.submit_to_result_ms"]
	if run.Sum > e2e.Sum {
		t.Fatalf("run %dms > submit-to-result %dms", run.Sum, e2e.Sum)
	}
	for _, g := range []string{"serve.queue.pending", "serve.queue.running", "serve.queue.retry_after_sec",
		"serve.queue.slots", "serve.queue.max_pending"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Fatalf("gauge %s not published", g)
		}
	}
	if snap.Gauges["serve.queue.retry_after_sec"] < 1 {
		t.Fatalf("retry_after gauge = %v, want >= 1", snap.Gauges["serve.queue.retry_after_sec"])
	}

	// The cache-lookup histogram ticks on a hit.
	if _, cached, err := q.Submit(benchRequest("mcf")); err != nil || !cached {
		t.Fatalf("cache: %v %v", cached, err)
	}
	if h := o.Metrics.Snapshot().Histograms["serve.cache_lookup_us"]; h.Count != 1 {
		t.Fatalf("serve.cache_lookup_us count = %d, want 1", h.Count)
	}
}

// A serve.crash fault firing inside the durability window must still
// leave a coherent trace: recovery re-runs under the same trace and the
// timeline's checkpoint-resume phases show the short-circuit.
func TestTraceThroughDurabilityWindowCrash(t *testing.T) {
	dir := t.TempDir()
	rules, err := faults.ParseRules("serve.crash@1:error")
	if err != nil {
		t.Fatal(err)
	}
	fctx := faults.With(context.Background(), faults.NewInjector(rules...))
	q := openQueue(t, fctx, dir, obs.New())
	req := benchRequest("mcf")
	j, _, err := q.SubmitTraced(req, Submission{TraceID: "t-window"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !q.Killed() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !q.Killed() {
		t.Fatal("serve.crash fault never fired")
	}
	q.Kill()

	q2 := openQueue(t, context.Background(), dir, obs.New())
	defer q2.Close()
	done := waitState(t, q2, j.ID, StateDone)
	if done.TraceID != "t-window" {
		t.Fatalf("trace after durability-window crash = %q", done.TraceID)
	}
	tl, err := q2.Timeline("t-window")
	if err != nil {
		t.Fatal(err)
	}
	if tl.Phase("checkpoint-resume") == nil {
		t.Fatal("recovery re-run resumed nothing from checkpoints")
	}
	if tl.Phase("run") == nil || tl.Phase("queue-wait") == nil {
		t.Fatalf("timeline phases incomplete: %+v", tl.Phases)
	}
}
