package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/program"
	"xbsim/internal/serve"
)

const (
	// pollEvery is the result-polling period. The in-tree load test's
	// 50 ms period quantizes latencies; at 1 ms polling costs more
	// requests (serve.polls_per_fresh) but times completion to ~1 ms.
	pollEvery = time.Millisecond
	// submitTimeout bounds one submission's submit-to-result wait.
	submitTimeout = 60 * time.Second
)

// server is an in-process serve.Start on its own spool, with an HTTP
// client holding at most nproc connections to it.
type server struct {
	srv    *serve.Server
	base   string
	spool  string
	client *http.Client
}

func startServer(ctx context.Context, spool string) (*server, error) {
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.Start(ctx, serve.Options{
		Addr:        "127.0.0.1:0",
		Spool:       spool,
		Concurrency: 2,
		Workers:     runtime.NumCPU(),
	})
	if err != nil {
		return nil, fmt.Errorf("serve.Start: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	return &server{srv: srv, base: "http://" + srv.Addr(), spool: spool, client: &http.Client{Transport: tr}}, nil
}

// close drains the server and drops the client's connections.
func (s *server) close() error {
	err := s.srv.Close()
	s.client.CloseIdleConnections()
	return err
}

// outcome classifies one submission by the server's answer.
type outcome int

const (
	outFresh     outcome = iota // 202, a new job under the submission's own trace
	outCoalesced                // 202 onto an in-flight job (another trace)
	outHit                      // 200, cached result
	outRejected                 // 429
	outFailed                   // any other answer, a failed job, or a timeout
)

var outcomeNames = []string{"fresh", "coalesced", "hit", "rejected", "failed"}

// submission is what a client saw of one POST /jobs and its result.
type submission struct {
	outcome   outcome
	jobID     string
	post      time.Duration // POST round trip
	result    time.Duration // the GET /result round trip that returned 200
	polls     int           // GET /result requests made
	latency   time.Duration // POST start to result bytes received
	completed time.Time     // when the result bytes were received
	body      []byte
	suiteFP   string // X-Suite-Fingerprint
	err       error
}

// submit POSTs one request under the given trace ID and waits for its
// result, polling every pollEvery.
func (s *server) submit(ctx context.Context, req jobqueue.Request, trace string) submission {
	ctx, cancel := context.WithTimeout(ctx, submitTimeout)
	defer cancel()
	var sub submission
	body, err := json.Marshal(serve.SubmitRequest{Request: req})
	if err != nil {
		return submission{outcome: outFailed, err: err}
	}
	start := time.Now()
	status, data, _, err := s.do(ctx, http.MethodPost, "/jobs", body, trace)
	sub.post = time.Since(start)
	if err != nil {
		return submission{outcome: outFailed, err: err}
	}
	var resp serve.SubmitResponse
	switch status {
	case http.StatusOK, http.StatusAccepted:
		if err := json.Unmarshal(data, &resp); err != nil || resp.Job == nil {
			return submission{outcome: outFailed, err: fmt.Errorf("submit response %q: %v", data, err)}
		}
	case http.StatusTooManyRequests:
		return submission{outcome: outRejected, err: fmt.Errorf("rejected: %s", data)}
	default:
		return submission{outcome: outFailed, err: fmt.Errorf("submit: status %d: %s", status, data)}
	}
	sub.jobID = resp.Job.ID
	switch {
	case resp.Cached:
		sub.outcome = outHit
	case resp.TraceID == trace:
		sub.outcome = outFresh
	default:
		sub.outcome = outCoalesced
	}
	for {
		rs := time.Now()
		status, data, hdr, err := s.do(ctx, http.MethodGet, resp.ResultURL, nil, "")
		sub.polls++
		if err != nil {
			return submission{outcome: outFailed, err: err}
		}
		switch {
		case status == http.StatusOK:
			sub.completed = time.Now()
			sub.result = sub.completed.Sub(rs)
			sub.latency = sub.completed.Sub(start)
			sub.body, sub.suiteFP = data, hdr.Get("X-Suite-Fingerprint")
			return sub
		case status == http.StatusConflict && !bytes.Contains(data, []byte("state failed")):
		default:
			return submission{outcome: outFailed, err: fmt.Errorf("job %s result: status %d: %s", sub.jobID, status, data)}
		}
		select {
		case <-ctx.Done():
			return submission{outcome: outFailed, err: fmt.Errorf("job %s: %w", sub.jobID, ctx.Err())}
		case <-time.After(pollEvery):
		}
	}
}

func (s *server) do(ctx context.Context, method, path string, body []byte, trace string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set("X-Xbsim-Trace", trace)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// jobRecord fetches a job's journaled state: its Submitted, Started and
// Finished stamps.
func (s *server) jobRecord(ctx context.Context, id string) (*jobqueue.Job, error) {
	status, data, _, err := s.do(ctx, http.MethodGet, "/jobs/"+id, nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("job %s: status %d", id, status)
	}
	var j jobqueue.Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	return &j, nil
}

// dirMiB is the size of the regular files under dir.
func dirMiB(dir string) float64 {
	var total int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return mib(uint64(total))
}

// specJobConfig is the per-job configuration of the in-tree load test:
// the quick preset at 400k ops and 8000-instruction intervals.
func specJobConfig() experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.TargetOps = 400_000
	cfg.IntervalSize = 8_000
	return cfg
}

func specRequest(spec program.Spec) jobqueue.Request {
	return jobqueue.Request{Specs: []program.Spec{spec}, Config: specJobConfig()}
}

// queueSamples are in-process jobqueue call latencies, in µs.
type queueSamples struct{ fresh, hit, result []float64 }

// runQueue drives a fresh-then-hits stream on jobqueue.Open/Submit/
// Result directly, without HTTP: each request is submitted, awaited,
// read, then submitted and read hitsPer more times as cache hits whose
// bytes must equal the first result.
func runQueue(ctx context.Context, dir string, reqs []jobqueue.Request, hitsPer int, t *tally) (queueSamples, error) {
	var qs queueSamples
	q, err := jobqueue.Open(ctx, jobqueue.Options{Dir: dir, Concurrency: 2, Workers: runtime.NumCPU()})
	if err != nil {
		return qs, fmt.Errorf("jobqueue.Open: %w", err)
	}
	defer q.Close()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i, req := range reqs {
		t.attempted += 1 + hitsPer
		start := time.Now()
		job, cached, err := q.Submit(cloneRequest(req))
		qs.fresh = append(qs.fresh, us(time.Since(start)))
		if err != nil || cached {
			t.fail(1+hitsPer, "in-process job %d: submit cached=%v err=%v", i, cached, err)
			continue
		}
		if err := awaitDone(ctx, q, job.ID); err != nil {
			t.fail(1+hitsPer, "in-process job %d: %v", i, err)
			continue
		}
		start = time.Now()
		want, err := q.Result(job.ID)
		qs.result = append(qs.result, us(time.Since(start)))
		if err != nil {
			t.fail(1+hitsPer, "in-process job %d result: %v", i, err)
			continue
		}
		for h := 0; h < hitsPer; h++ {
			start = time.Now()
			hj, cached, err := q.Submit(cloneRequest(req))
			qs.hit = append(qs.hit, us(time.Since(start)))
			if err != nil || !cached || hj.ID != job.ID {
				t.fail(1, "in-process job %d hit %d: cached=%v err=%v", i, h, cached, err)
				continue
			}
			start = time.Now()
			got, err := q.Result(job.ID)
			qs.result = append(qs.result, us(time.Since(start)))
			if err != nil || !bytes.Equal(got, want) {
				t.fail(1, "in-process job %d hit %d: result differs (err %v)", i, h, err)
			}
		}
	}
	return qs, nil
}

// cloneRequest copies the request's slices: Submit normalizes them in
// place, and the queue keeps the request of a new job, so a request
// submitted twice would be written while its job reads it.
func cloneRequest(r jobqueue.Request) jobqueue.Request {
	r.Benchmarks = append([]string(nil), r.Benchmarks...)
	r.Specs = append([]program.Spec(nil), r.Specs...)
	r.Config.Benchmarks = append([]string(nil), r.Config.Benchmarks...)
	return r
}

func awaitDone(ctx context.Context, q *jobqueue.Queue, id string) error {
	ctx, cancel := context.WithTimeout(ctx, submitTimeout)
	defer cancel()
	for {
		j, err := q.Get(id)
		if err != nil {
			return err
		}
		switch j.State {
		case jobqueue.StateDone:
			return nil
		case jobqueue.StateFailed:
			return fmt.Errorf("job failed: %s", j.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// outcomeLine renders submission outcome counts.
func outcomeLine(counts [5]int) string {
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = fmt.Sprintf("%s %d", outcomeNames[i], n)
	}
	return strings.Join(parts, ", ")
}
