package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"xbsim/internal/bench"
	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
	"xbsim/internal/program"
)

// LoadTestOptions configures LoadTest.
type LoadTestOptions struct {
	// BaseURL targets a running server ("http://127.0.0.1:8080").
	BaseURL string
	// Jobs is the total number of submissions (default 12).
	Jobs int
	// Unique is how many distinct work items the stream draws from
	// (default Jobs/3, min 1): submission i carries spec Unique*i/Jobs —
	// the rest are duplicates exercising the result cache and
	// in-flight coalescing.
	Unique int
	// Clients is the number of concurrent submitters (default 4).
	Clients int
	// Seed feeds the synthesized program specs.
	Seed uint64
	// Config runs every job (zero = a small quick-derived config).
	Config experiment.Config
	// Timeout bounds one submission's submit-to-result wait (default
	// 120s).
	Timeout time.Duration
	// Progress, when non-nil, receives one line per completed job.
	Progress io.Writer
}

// LoadTest drives a mixed fresh/duplicate submission stream against a
// running server over real HTTP and measures what a client sees:
// submit-to-result latency per job (p50/p99), end-to-end throughput,
// and the cache-hit rate on duplicate work. The result lands in the
// bench schema's additive "serve" section.
func LoadTest(ctx context.Context, opt LoadTestOptions) (*bench.ServeRecord, error) {
	if opt.Jobs <= 0 {
		opt.Jobs = 12
	}
	if opt.Unique <= 0 {
		opt.Unique = opt.Jobs / 3
	}
	if opt.Unique < 1 {
		opt.Unique = 1
	}
	if opt.Unique > opt.Jobs {
		opt.Unique = opt.Jobs
	}
	if opt.Clients <= 0 {
		opt.Clients = 4
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 120 * time.Second
	}
	if opt.Config.TargetOps == 0 {
		opt.Config = loadTestConfig()
	}

	rec := &bench.ServeRecord{
		Jobs:       opt.Jobs,
		Clients:    opt.Clients,
		Unique:     opt.Unique,
		Duplicates: opt.Jobs - opt.Unique,
	}

	outcomes := make([]submitOutcome, opt.Jobs)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opt.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// Spread the unique specs over the stream so duplicates
				// interleave with fresh work instead of trailing it.
				spec := program.RandomSpec(opt.Seed, opt.Unique*i/opt.Jobs)
				o, err := submitAndWait(ctx, opt, spec)
				if err != nil {
					o.failed = true
					if opt.Progress != nil {
						fmt.Fprintf(opt.Progress, "loadtest: job %d: %v\n", i, err)
					}
				} else if opt.Progress != nil {
					fmt.Fprintf(opt.Progress, "loadtest: job %d: %s in %.1fms\n",
						i, o.kind, float64(o.latency.Microseconds())/1000)
				}
				outcomes[i] = o
			}
		}()
	}
	for i := 0; i < opt.Jobs; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(work)
	wg.Wait()
	rec.WallUS = uint64(time.Since(start).Microseconds())

	var all, hits []time.Duration
	for _, o := range outcomes {
		switch {
		case o.reject:
			rec.Rejected++
		case o.failed:
			rec.Failed++
		default:
			rec.Completed++
			all = append(all, o.latency)
			switch o.kind {
			case outcomeHit:
				rec.CacheHits++
				hits = append(hits, o.latency)
			case outcomeCoalesced:
				rec.Coalesced++
			}
		}
	}
	if rec.WallUS > 0 {
		rec.ThroughputJobsPerSec = float64(rec.Completed) / (float64(rec.WallUS) / 1e6)
	}
	rec.P50US = quantileUS(all, 0.50)
	rec.P99US = quantileUS(all, 0.99)
	rec.CacheHitP50US = quantileUS(hits, 0.50)
	return rec, nil
}

// Submission outcomes, as the server answered them.
const (
	outcomeFresh     = "ran"       // 202: a new job under the submission's own trace
	outcomeCoalesced = "coalesced" // 202 onto an in-flight job, under another trace
	outcomeHit       = "cache hit" // 200: the stored result
)

// submitOutcome is one submission's client-observed outcome.
type submitOutcome struct {
	latency time.Duration
	kind    string // outcomeFresh, outcomeCoalesced or outcomeHit
	failed  bool
	reject  bool
}

// submitAndWait POSTs one spec job under a fresh trace ID and polls
// until its result is servable, returning the client-observed latency.
// The response's canonical trace tells a fresh job (the submission's
// own trace) from a duplicate that coalesced onto an in-flight job.
func submitAndWait(ctx context.Context, opt LoadTestOptions, spec program.Spec) (submitOutcome, error) {
	ctx, cancel := context.WithTimeout(ctx, opt.Timeout)
	defer cancel()
	start := time.Now()

	body, err := json.Marshal(SubmitRequest{Request: jobqueue.Request{
		Specs:  []program.Spec{spec},
		Config: opt.Config,
	}})
	if err != nil {
		return submitOutcome{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, opt.BaseURL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return submitOutcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	trace := obs.NewTraceID()
	req.Header.Set("X-Xbsim-Trace", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return submitOutcome{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return submitOutcome{}, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return submitOutcome{reject: true}, fmt.Errorf("rejected: queue full")
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return submitOutcome{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return submitOutcome{}, fmt.Errorf("submit response: %w", err)
	}
	if sub.Cached {
		return submitOutcome{latency: time.Since(start), kind: outcomeHit}, nil
	}
	kind := outcomeFresh
	if sub.TraceID != trace {
		kind = outcomeCoalesced
	}

	// Poll the result endpoint: 409 means "still running", 200 means the
	// bytes are servable. The interval doubles from 1ms up to 50ms, so
	// the client sees a result at most about twice as late as it was
	// ready: within one power-of-two latency bucket of the server's own.
	for wait := time.Millisecond; ; wait = min(2*wait, 50*time.Millisecond) {
		rreq, err := http.NewRequestWithContext(ctx, http.MethodGet, opt.BaseURL+sub.ResultURL, nil)
		if err != nil {
			return submitOutcome{}, err
		}
		rresp, err := http.DefaultClient.Do(rreq)
		if err != nil {
			return submitOutcome{}, err
		}
		io.Copy(io.Discard, rresp.Body)
		rresp.Body.Close()
		switch rresp.StatusCode {
		case http.StatusOK:
			return submitOutcome{latency: time.Since(start), kind: kind}, nil
		case http.StatusConflict:
			// Fall through to a job-state check: a failed job stays 409
			// forever, so distinguish "running" from "failed".
			if state, err := jobState(ctx, opt.BaseURL, sub.Job.ID); err == nil && state == jobqueue.StateFailed {
				return submitOutcome{}, fmt.Errorf("job %s failed", sub.Job.ID)
			}
		default:
			return submitOutcome{}, fmt.Errorf("result: status %d", rresp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return submitOutcome{}, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// jobState fetches one job's lifecycle state.
func jobState(ctx context.Context, baseURL, id string) (jobqueue.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v struct {
		State jobqueue.State `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", err
	}
	return v.State, nil
}

// loadTestConfig is the default per-job workload: one quick-suite-style
// configuration small enough that a load test finishes in seconds.
func loadTestConfig() experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.TargetOps = 400_000
	cfg.IntervalSize = 8_000
	return cfg
}

// quantileUS returns the q-quantile of ds in microseconds (0 when
// empty), using the nearest-rank method.
func quantileUS(ds []time.Duration, q float64) uint64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return uint64(sorted[idx].Microseconds())
}
