package jobqueue

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xbsim/internal/fingerprint"
)

// Spool is the on-disk job journal: one subdirectory per lifecycle
// state holding one fingerprinted JSON file per job, a results
// directory holding completed suites' exact report JSON bytes, and a
// per-job checkpoint directory tree. Record and result writes are
// atomic (temp + rename in the same directory), mirroring the
// checkpoint machinery, so a crash at any instant leaves whole files or
// no files — never torn ones. The append-only logs (journal, links)
// tolerate a torn last line instead.
//
//	<dir>/jobs/pending/<id>.json
//	<dir>/jobs/running/<id>.json
//	<dir>/jobs/done/<id>.json
//	<dir>/jobs/failed/<id>.json
//	<dir>/results/<id>.json
//	<dir>/ckpt/<id>/...
//	<dir>/journal/<id>.jsonl        per-job flight-recorder journal
//	<dir>/journal/<id>.1.jsonl      its rotated predecessor, if any
//	<dir>/links/<id>.txt            trace links added since the record
//	                                was written, one per line
type Spool struct {
	dir string
}

// spoolVersion gates the job-file format; bump on incompatible change.
const spoolVersion = 1

// jobFile is the on-disk job record: the payload plus a recomputed-on-
// load fingerprint, so a corrupt or hand-edited record is detected and
// quarantined rather than trusted.
type jobFile struct {
	Version     int    `json:"version"`
	Job         Job    `json:"job"`
	Fingerprint string `json:"fingerprint"`
}

// OpenSpool opens (creating if needed) the spool rooted at dir.
func OpenSpool(dir string) (*Spool, error) {
	s := &Spool{dir: dir}
	for _, st := range states {
		if err := os.MkdirAll(s.stateDir(st), 0o755); err != nil {
			return nil, err
		}
	}
	for _, sub := range []string{"results", "ckpt", "journal", "links"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the spool's root directory.
func (s *Spool) Dir() string { return s.dir }

func (s *Spool) stateDir(st State) string {
	return filepath.Join(s.dir, "jobs", string(st))
}

func (s *Spool) jobPath(st State, id string) string {
	return filepath.Join(s.stateDir(st), id+".json")
}

// CheckpointDir names the job's private checkpoint directory. Per-job
// directories (on top of the experiment layer's per-config scoping)
// keep one job's checkpoint lifecycle — created on first run, reused on
// recovery — independent of every other job's.
func (s *Spool) CheckpointDir(id string) string {
	return filepath.Join(s.dir, "ckpt", id)
}

// ResultPath names the job's result file.
func (s *Spool) ResultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

// JournalPath names the job's durable flight-recorder journal — the
// JSONL event stream the per-job recorder appends to across process
// lifetimes, and the timeline reconstructor reads back. Read it with
// obs.ReadJournal, which merges the rotated generation.
func (s *Spool) JournalPath(id string) string {
	return filepath.Join(s.dir, "journal", id+".jsonl")
}

func (s *Spool) linksPath(id string) string {
	return filepath.Join(s.dir, "links", id+".txt")
}

// AppendLink durably links a trace onto the job by appending one line
// to its link log: a single O_APPEND write, with no temp file and no
// rename, so a cache hit or coalesce never rewrites the job record.
// Load merges the log back into Job.CoalescedTraces.
func (s *Spool) AppendLink(id, trace string) error {
	f, err := os.OpenFile(s.linksPath(id), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.WriteString(trace + "\n")
	return errors.Join(werr, f.Close())
}

// mergeLinks folds the job's link log into its record's links, in log
// order. A torn last line (no trailing newline: a crash mid-append) is
// dropped; addLink skips duplicates and the canonical trace and keeps
// the cap.
func (s *Spool) mergeLinks(j *Job) error {
	data, err := os.ReadFile(s.linksPath(j.ID))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	lines := strings.Split(string(data), "\n")
	for _, tr := range lines[:len(lines)-1] { // the last piece is "" or torn
		j.addLink(tr)
	}
	return nil
}

// repairLinks cuts a torn last line (a crash mid-append) off every link
// log, so the next append starts a line of its own instead of running
// on from the fragment. The queue that owns the spool calls it at Open;
// Load only reads the logs.
func (s *Spool) repairLinks() error {
	dir := filepath.Join(s.dir, "links")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 && data[len(data)-1] != '\n' {
			err = os.Truncate(path, int64(strings.LastIndexByte(string(data), '\n')+1))
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// jobFingerprint digests the job payload via its canonical JSON form.
func jobFingerprint(j *Job) (string, error) {
	data, err := json.Marshal(j)
	if err != nil {
		return "", err
	}
	h := fingerprint.New()
	h.String(string(data))
	return h.Sum(), nil
}

// writeAtomic writes data to path via a temp file in the same directory
// and an atomic rename.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Write journals the job into st's directory (atomically, leaving any
// other state's file for the job untouched — Move handles transitions).
func (s *Spool) Write(st State, j *Job) error {
	fp, err := jobFingerprint(j)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(&jobFile{Version: spoolVersion, Job: *j, Fingerprint: fp}, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(s.jobPath(st, j.ID), append(data, '\n'))
}

// Move transitions the job from one state to another, write-ahead: the
// new state's file is durably in place before the old one is removed. A
// crash between the two leaves the job journaled in both directories;
// recovery precedence (states order) resolves it in favor of the newer
// state, because transitions only ever move toward higher precedence
// (pending→running→done/failed) or re-spool running→pending, where
// running's stale presence is exactly the "re-enqueue me" signal.
func (s *Spool) Move(j *Job, from, to State) error {
	if err := s.Write(to, j); err != nil {
		return err
	}
	if err := os.Remove(s.jobPath(from, j.ID)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Remove deletes the job's file in st, tolerating absence.
func (s *Spool) Remove(st State, id string) error {
	err := os.Remove(s.jobPath(st, id))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// load reads and validates one job file.
func (s *Spool) load(st State, path string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("job file %s: unparseable: %w", filepath.Base(path), err)
	}
	if jf.Version != spoolVersion {
		return nil, fmt.Errorf("job file %s: version %d, want %d", filepath.Base(path), jf.Version, spoolVersion)
	}
	fp, err := jobFingerprint(&jf.Job)
	if err != nil {
		return nil, err
	}
	if fp != jf.Fingerprint {
		return nil, fmt.Errorf("job file %s: fingerprint mismatch, corrupt", filepath.Base(path))
	}
	j := jf.Job
	j.State = st
	return &j, nil
}

// Load scans every state directory and returns one Job per ID, resolved
// by state precedence: a job journaled in done/ and running/ (crash
// during the done commit) loads as done; one in running/ and pending/
// (crash during a drain re-spool) loads as the one precedence favors.
// Files that fail validation are skipped (and reported in the second
// return) — a corrupt journal entry costs that job, never the spool.
// For every resolved job, lower-precedence leftovers are cleaned up so
// the journal converges back to one file per job, and the job's link
// log is merged into its CoalescedTraces.
func (s *Spool) Load() ([]*Job, []error) {
	var errs []error
	jobs := map[string]*Job{}
	for _, st := range states { // precedence order: first hit wins
		entries, err := os.ReadDir(s.stateDir(st))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
				continue
			}
			id := strings.TrimSuffix(name, ".json")
			if _, seen := jobs[id]; seen {
				// A lower-precedence leftover from an interrupted Move.
				if err := s.Remove(st, id); err != nil {
					errs = append(errs, err)
				}
				continue
			}
			j, err := s.load(st, filepath.Join(s.stateDir(st), name))
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if j.ID != id {
				errs = append(errs, fmt.Errorf("job file %s: payload names %q", name, j.ID))
				continue
			}
			if err := s.mergeLinks(j); err != nil {
				errs = append(errs, err)
			}
			jobs[id] = j
		}
	}
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j)
	}
	return out, errs
}

// WriteResult atomically persists the job's result bytes — the exact
// Suite.WriteJSON output, stored verbatim so serving it back is
// byte-identical to what a direct pipeline run prints.
func (s *Spool) WriteResult(id string, data []byte) error {
	return writeAtomic(s.ResultPath(id), data)
}

// ReadResult returns the job's stored result bytes.
func (s *Spool) ReadResult(id string) ([]byte, error) {
	return os.ReadFile(s.ResultPath(id))
}
