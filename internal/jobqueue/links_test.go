package jobqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xbsim/internal/faults"
	"xbsim/internal/obs"
)

// submitHits submits req under traces prefix-0 … prefix-(n-1) from
// `clients` concurrent submitters and fails unless every one is a cache
// hit on jobID.
func submitHits(t *testing.T, q *Queue, req Request, jobID, prefix string, n, clients int) []string {
	t.Helper()
	traces := make([]string, n)
	for i := range traces {
		traces[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				j, cached, err := q.SubmitTraced(req, Submission{TraceID: traces[i]})
				switch {
				case err != nil:
					errs <- err
				case !cached || j.ID != jobID:
					errs <- fmt.Errorf("%s: cached=%v job %s, want a hit on %s", traces[i], cached, j.ID, jobID)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return traces
}

// Links made by a coalesce and by concurrent cache hits must survive a
// kill -9 and a reopen on the same spool: each trace still resolves to
// the job's timeline and is listed in its links.
func TestLinksSurviveKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	q := openQueue(t, context.Background(), dir, obs.New())
	req := benchRequest("mcf")
	j, _, err := q.SubmitTraced(req, Submission{TraceID: "t-canon"})
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := q.SubmitTraced(req, Submission{TraceID: "t-coalesce"}); err != nil || cached {
		t.Fatalf("coalesce: cached=%v err=%v", cached, err)
	}
	waitState(t, q, j.ID, StateDone)
	traces := append([]string{"t-coalesce"}, submitHits(t, q, req, j.ID, "t-hit", 24, 4)...)
	q.Kill()

	q2 := openQueue(t, context.Background(), dir, obs.New())
	defer q2.Close()
	for _, tr := range traces {
		tl, err := q2.Timeline(tr)
		if err != nil {
			t.Fatalf("Timeline(%q) after reopen: %v", tr, err)
		}
		if tl.JobID != j.ID || tl.TraceID != "t-canon" {
			t.Fatalf("Timeline(%q) = job %s trace %s", tr, tl.JobID, tl.TraceID)
		}
		found := false
		for _, l := range tl.Links {
			found = found || l == tr
		}
		if !found {
			t.Fatalf("trace %s missing from links %v", tr, tl.Links)
		}
	}
	if got, _ := q2.Get(j.ID); len(got.CoalescedTraces) != len(traces) {
		t.Fatalf("%d links after reopen, want %d", len(got.CoalescedTraces), len(traces))
	}
}

// spoolDoneJob writes a done mcf job with a result, record links rec
// and link-log bytes logData into a spool at dir, as a queue would leave
// them, and returns the spool, the job's request and its ID.
func spoolDoneJob(t *testing.T, dir string, rec []string, logData string) (*Spool, Request, string) {
	t.Helper()
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRequest("mcf")
	req.normalize()
	id, err := req.ID()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Write(StateDone, &Job{ID: id, Request: req, TraceID: "t-canon", CoalescedTraces: rec}); err != nil {
		t.Fatal(err)
	}
	if err := sp.WriteResult(id, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sp.linksPath(id), []byte(logData), 0o644); err != nil {
		t.Fatal(err)
	}
	return sp, req, id
}

// A link log whose last line was torn by a crash mid-append loads
// without that line and without an error; the record's own links come
// first. A queue opened on the spool cuts the fragment off, so the next
// hit's link lands on a line of its own and resolves after a restart.
func TestLinkLogTornLastLine(t *testing.T) {
	dir := t.TempDir()
	sp, req, id := spoolDoneJob(t, dir, []string{"t-rec"}, "t-log1\nt-log2\nt-tor")
	jobs, errs := sp.Load()
	if len(errs) != 0 || len(jobs) != 1 {
		t.Fatalf("Load = %d jobs, errs %v", len(jobs), errs)
	}
	if want := []string{"t-rec", "t-log1", "t-log2"}; !reflect.DeepEqual(jobs[0].CoalescedTraces, want) {
		t.Fatalf("links = %v, want %v", jobs[0].CoalescedTraces, want)
	}

	q := openQueue(t, context.Background(), dir, obs.New())
	if _, cached, err := q.SubmitTraced(req, Submission{TraceID: "t-new"}); err != nil || !cached {
		t.Fatalf("hit: cached=%v err=%v", cached, err)
	}
	q.Kill()
	if data, _ := os.ReadFile(sp.linksPath(id)); string(data) != "t-log1\nt-log2\nt-new\n" {
		t.Fatalf("link log = %q", data)
	}
	q2 := openQueue(t, context.Background(), dir, obs.New())
	defer q2.Close()
	if got, _ := q2.Get(id); !reflect.DeepEqual(got.CoalescedTraces, []string{"t-rec", "t-log1", "t-log2", "t-new"}) {
		t.Fatalf("links after restart = %v", got.CoalescedTraces)
	}
	if tl, err := q2.Timeline("t-new"); err != nil || tl.JobID != id {
		t.Fatalf("Timeline(t-new) = %v, %v", tl, err)
	}
}

// Record links and log links merge in order, without duplicates or the
// canonical trace, capped at maxTraceLinks — and the cap holds across a
// restart: a hit past the cap links nothing and appends nothing.
func TestLinkMergeDedupAndCap(t *testing.T) {
	dir := t.TempDir()
	var rec, logLines, want []string
	for i := 0; i < 40; i++ {
		rec = append(rec, fmt.Sprintf("t-r%d", i))
		logLines = append(logLines, fmt.Sprintf("t-l%d", i))
	}
	want = append(append(want, rec...), logLines[:maxTraceLinks-len(rec)]...)
	logLines = append([]string{"t-r5", "t-canon", ""}, append(logLines, "t-l0")...)
	// A record as written before link logs existed: links in the record.
	sp, req, id := spoolDoneJob(t, dir, rec, strings.Join(logLines, "\n")+"\n")

	q := openQueue(t, context.Background(), dir, obs.New())
	got, err := q.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CoalescedTraces, want) {
		t.Fatalf("merged links = %v\nwant %v", got.CoalescedTraces, want)
	}
	before, _ := os.ReadFile(sp.linksPath(id))
	if j, cached, err := q.SubmitTraced(req, Submission{TraceID: "t-over-cap"}); err != nil || !cached || len(j.CoalescedTraces) != maxTraceLinks {
		t.Fatalf("hit past the cap: cached=%v err=%v links=%d", cached, err, len(j.CoalescedTraces))
	}
	if after, _ := os.ReadFile(sp.linksPath(id)); !bytes.Equal(before, after) {
		t.Fatal("a hit past the cap appended to the link log")
	}
	q.Kill()

	q2 := openQueue(t, context.Background(), dir, obs.New())
	defer q2.Close()
	got, _ = q2.Get(id)
	if !reflect.DeepEqual(got.CoalescedTraces, want) {
		t.Fatalf("links after restart = %v\nwant %v", got.CoalescedTraces, want)
	}
	for _, key := range []string{"t-r0", "t-l23"} {
		if _, err := q2.Timeline(key); err != nil {
			t.Fatalf("Timeline(%q): %v", key, err)
		}
	}
	for _, key := range []string{"t-l24", "t-over-cap"} {
		if _, err := q2.Timeline(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Timeline(%q) = %v, want ErrNotFound (past the cap)", key, err)
		}
	}
}

// recordSnapshot reads a job record's bytes and file identity.
func recordSnapshot(t *testing.T, path string) ([]byte, os.FileInfo) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, fi
}

// assertRecordUntouched fails unless path still holds the same bytes in
// the same file: a rename over it would change the inode.
func assertRecordUntouched(t *testing.T, path string, data []byte, fi os.FileInfo) {
	t.Helper()
	after, afi := recordSnapshot(t, path)
	if !bytes.Equal(data, after) {
		t.Fatalf("%s rewritten:\n%s\n---\n%s", path, data, after)
	}
	if !os.SameFile(fi, afi) {
		t.Fatalf("%s replaced by a rename", path)
	}
}

// Cache hits and coalesces persist their links without re-writing the
// job record: the done/ (or pending/) file stays byte-identical and is
// the same file, while the link log holds one line per new trace.
func TestDuplicatesLeaveRecordUntouched(t *testing.T) {
	t.Run("hits", func(t *testing.T) {
		q := openQueue(t, context.Background(), t.TempDir(), obs.New())
		defer q.Close()
		req := benchRequest("mcf")
		j, _, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, j.ID, StateDone)
		path := q.Spool().jobPath(StateDone, j.ID)
		data, fi := recordSnapshot(t, path)
		traces := submitHits(t, q, req, j.ID, "t-hit", 32, 4)
		assertRecordUntouched(t, path, data, fi)
		logged, err := os.ReadFile(q.Spool().linksPath(j.ID))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(logged), "\n"); n != len(traces) {
			t.Fatalf("link log has %d lines, want %d", n, len(traces))
		}
	})
	t.Run("coalesce", func(t *testing.T) {
		// The hang holds the only scheduler slot before the job leaves
		// pending, so every duplicate deterministically coalesces.
		rules, err := faults.ParseRules("serve.crash@0:hang")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(faults.With(context.Background(), faults.NewInjector(rules...)))
		q := openQueue(t, ctx, t.TempDir(), obs.New())
		defer func() {
			cancel()
			q.Kill()
		}()
		req := benchRequest("mcf")
		j, _, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		path := q.Spool().jobPath(StatePending, j.ID)
		data, fi := recordSnapshot(t, path)
		for i := 0; i < 8; i++ {
			c, cached, err := q.SubmitTraced(req, Submission{TraceID: fmt.Sprintf("t-dup-%d", i)})
			if err != nil || cached || c.State != StatePending {
				t.Fatalf("coalesce %d: cached=%v state=%s err=%v", i, cached, c.State, err)
			}
		}
		assertRecordUntouched(t, path, data, fi)
	})
}
