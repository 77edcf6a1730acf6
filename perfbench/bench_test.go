package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"xbsim/internal/experiment"
)

// toyPipeline shrinks a pipeline workload to two small benchmarks. Its
// name differs from every pinned workload, so no fingerprint is pinned.
func toyPipeline(w pipelineWorkload) pipelineWorkload {
	return pipelineWorkload{name: w.name + "-toy", config: func(seed uint64) experiment.Config {
		cfg := w.config(seed)
		cfg.Benchmarks = cfg.Benchmarks[:2]
		cfg.TargetOps = 300_000
		cfg.IntervalSize = 6_000
		return cfg
	}}
}

var toyMixed = mixedWorkload{minFresh: 3, traceSpecs: 2, queueSpecs: 2}

// toyWorkloads are every workload at toy size.
var toyWorkloads = map[string]workload{
	"paper-suite":    toyPipeline(paperSuite).run,
	"fine-intervals": toyPipeline(fineIntervals).run,
	"serve-mixed":    toyMixed.run,
}

func runToy(t *testing.T, name string, seed uint64, traced bool) map[string]metric {
	t.Helper()
	o := options{seed: seed, seconds: 300 * time.Millisecond, trace: traced, scratch: t.TempDir(), log: &bytes.Buffer{}}
	m, tl, err := toyWorkloads[name](context.Background(), o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, traced, err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%s (trace %v): %d of %d operations failed: %v", name, traced, tl.failed, tl.attempted, tl.problems)
	}
	line, err := checkCatalog(m, traced)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, traced, err)
	}
	if want := map[bool]int{false: len(endToEnd), true: len(perLayer)}[traced]; len(line) != want {
		t.Fatalf("%s (trace %v): result line has %d metrics, want %d", name, traced, len(line), want)
	}
	for n, v := range m {
		if v.Value != v.Value || v.Value < 0 {
			t.Errorf("%s (trace %v): %s = %v", name, traced, n, v.Value)
		}
	}
	return m
}

// deterministic are the metrics that must repeat exactly for a seed.
var deterministic = []string{
	"vli_cpi_err_pct", "fli_cpi_err_pct", "vli_speedup_err_pct", "vli_detail_pct",
	"mapping.markers", "vli.intervals", "clustering.points",
	"cmpsim.accesses", "cmpsim.l1_misses", "cmpsim.l2_misses", "cmpsim.l3_misses",
	"cmpsim.mem_accesses", "cmpsim.cycles",
}

// TestToyWorkloads runs every workload at toy size twice in each mode:
// every metric must be emitted with its unit, no operation may fail
// (which includes the traced driver agreeing with the pipeline), and
// the deterministic metrics must repeat exactly.
func TestToyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for name := range toyWorkloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a := runToy(t, name, 7, traced)
				b := runToy(t, name, 7, traced)
				for _, n := range deterministic {
					if va, ok := a[n]; ok && va != b[n] {
						t.Errorf("trace %v: %s differs between runs: %v vs %v", traced, n, va.Value, b[n].Value)
					}
				}
			}
		})
	}
}

// TestTracedDriverMatchesPipeline checks the traced driver against a
// pipeline pass directly, and that the comparison catches a difference.
func TestTracedDriverMatchesPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	w := toyPipeline(paperSuite)
	tg := pipelineTarget(w.name, w.config(3))
	r, err := runLayers(context.Background(), tg)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := tg.suite(context.Background(), tg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range r.outputs {
		res := suite.ByName(out.name)
		if why := compareOutput(out, res); why != "" {
			t.Fatalf("%s: %s", out.name, why)
		}
		out.cycles = append([]uint64(nil), out.cycles...)
		out.cycles[1]++
		if compareOutput(out, res) == "" {
			t.Fatalf("%s: a changed cycle count went unnoticed", out.name)
		}
	}
	if len(r.outputs) != len(tg.cfg.Benchmarks) {
		t.Fatalf("traced %d programs, want %d", len(r.outputs), len(tg.cfg.Benchmarks))
	}
}

// TestCatalogMatchesBenchmarkJSON holds the metric catalogue and
// BENCHMARK.json to the same names and units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		catalog []spec
		listed  []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.catalog) != len(c.listed) {
			t.Fatalf("catalog has %d metrics, BENCHMARK.json %d", len(c.catalog), len(c.listed))
		}
		for i, s := range c.catalog {
			if s.name != c.listed[i].Name || s.unit != c.listed[i].Unit {
				t.Errorf("metric %d: catalog %s [%s], BENCHMARK.json %s [%s]", i, s.name, s.unit, c.listed[i].Name, c.listed[i].Unit)
			}
		}
	}
}

// TestCommandLine checks the result line's shape and the usage errors.
func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", "paper-suite", "--trace", "2"}, &out, &errb); code != 2 {
		t.Fatalf("--trace 2: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("usage errors printed a result: %q", out.String())
	}
	if !strings.Contains(errb.String(), "serve-mixed") {
		t.Fatalf("usage message does not list the workloads: %q", errb.String())
	}
}

// TestPinnedFingerprints runs the real pipeline workloads' first pass
// at the default seed against expected.json.
func TestPinnedFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for _, w := range []pipelineWorkload{paperSuite, fineIntervals} {
		p := runPass(context.Background(), w.config(defaultSeed))
		if p.err != nil {
			t.Fatal(p.err)
		}
		tl := &tally{}
		checkFingerprint(tl, w.name, defaultSeed, p.suite.Fingerprint(), 1)
		if tl.failed != 0 {
			t.Error(tl.problems)
		}
	}
}
