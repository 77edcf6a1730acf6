// Command perfbench is xbsim's end-to-end and per-layer benchmark.
//
//	perfbench --workload paper-suite|fine-intervals|serve-mixed \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it times untraced passes of the workload and reports
// the end-to-end metrics; with --trace 1 it repeats the workload's work
// one layer at a time, timing the benchmark's own calls into each
// module, and reports the per-layer metrics. Either way it checks the
// program's outputs and prints, as its last line, one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// See README.md for the workloads, the metric map and how to compare
// two sets of runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose suite fingerprints expected.json pins.
const defaultSeed = 1

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// scratch is a directory the run may create files in (spools);
	// it is removed when the run ends.
	scratch string
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failed output checks while a run goes.
type tally struct {
	attempted, failed int
	problems          []string
}

// fail records n failed operations with the reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs one named workload.
type workload func(ctx context.Context, o options) (map[string]metric, *tally, error)

var workloads = map[string]workload{
	"paper-suite":    paperSuite.run,
	"fine-intervals": fineIntervals.run,
	"serve-mixed":    serveMixed.run,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-suite, fine-intervals or serve-mixed")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the per-layer traced driver instead of the untraced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	scratch, err := scratchDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scratch: scratch,
		log:     stdout,
	}
	prov, _ := json.Marshal(newProvenance(*name, *seed, *trace == 1))
	fmt.Fprintf(stdout, "provenance: %s\n", prov)

	metrics, t, err := w(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := checkCatalog(metrics, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range t.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	printMetrics(stdout, metrics)
	fmt.Fprintf(stdout, "fail_pct: %.4f %% (%d of %d operations)\n",
		100*float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: max(t.attempted, 1),
		Failed: t.failed, Metrics: line})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// scratchDir makes the run's private directory under .bench_build in
// the working directory, so the run writes nowhere outside its checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
