package main

import (
	"fmt"
	"sort"
)

// spec names one metric and its unit. BENCHMARK.json lists the same
// names; the package test holds the two lists equal.
type spec struct{ name, unit string }

// endToEnd are the metrics of the untraced passes (--trace 0). Every
// workload reports every one of them; README.md gives each metric's
// meaning on each workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"alloc_mib", "MiB"},
	{"vli_cpi_err_pct", "%"},
	{"fli_cpi_err_pct", "%"},
	{"vli_speedup_err_pct", "%"},
	{"vli_detail_pct", "%"},
	{"jobs_per_s", "jobs/s"},
	{"fresh_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
}

// printedOnly are the latency tails. Untraced runs print them, but they
// are not in the result line and so carry no bound: on a shared 2-CPU
// host the p90 of a pass or of a 5 ms read-back moves by 15–35% between
// runs of the same code, more than any bound a gate may use.
var printedOnly = []spec{
	{"fresh_p90_ms", "ms"},
	{"hit_p90_ms", "ms"},
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = []spec{
	{"compile.busy_ms", "ms"},
	{"profile.busy_ms", "ms"},
	{"profile.ns_per_instr", "ns/instr"},
	{"profile.alloc_mib", "MiB"},
	{"mapping.busy_ms", "ms"},
	{"mapping.markers", "count"},
	{"vli.busy_ms", "ms"},
	{"vli.intervals", "count"},
	{"clustering.busy_ms", "ms"},
	{"clustering.us_per_interval", "us/interval"},
	{"clustering.alloc_mib", "MiB"},
	{"clustering.points", "count"},
	{"cmpsim.busy_ms", "ms"},
	{"cmpsim.ns_per_access", "ns/access"},
	{"cmpsim.alloc_mib", "MiB"},
	{"cmpsim.accesses", "count"},
	{"cmpsim.l1_misses", "count"},
	{"cmpsim.l2_misses", "count"},
	{"cmpsim.l3_misses", "count"},
	{"cmpsim.mem_accesses", "count"},
	{"cmpsim.cycles", "count"},
	{"experiment.busy_ms", "ms"},
	{"layers.coverage_pct", "%"},
	{"pool.efficiency_pct", "%"},
	{"serve.submit_fresh_ms", "ms"},
	{"serve.submit_hit_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.polls_per_fresh", "polls/job"},
	{"jobqueue.queue_wait_ms", "ms"},
	{"jobqueue.run_ms", "ms"},
	{"jobqueue.notify_lag_ms", "ms"},
	{"jobqueue.submit_fresh_us", "us"},
	{"jobqueue.submit_hit_us", "us"},
	{"jobqueue.result_us", "us"},
	{"jobqueue.spool_mib", "MiB"},
}

// checkCatalog verifies that a run reports every metric of its mode,
// each with its catalogued unit, and nothing else but printedOnly ones.
// It returns the metrics of the result line.
func checkCatalog(m map[string]metric, traced bool) (map[string]metric, error) {
	want, extra := endToEnd, printedOnly
	if traced {
		want, extra = perLayer, nil
	}
	line := map[string]metric{}
	for _, s := range want {
		got, ok := m[s.name]
		if !ok || got.Unit != s.unit {
			return nil, fmt.Errorf("metric %s [%s] missing, or with unit %q", s.name, s.unit, got.Unit)
		}
		line[s.name] = got
	}
	var unknown []string
	for n := range m {
		if !contains(want, n) && !contains(extra, n) {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("uncatalogued metrics %v", unknown)
	}
	return line, nil
}

func contains(list []spec, name string) bool {
	for _, s := range list {
		if s.name == name {
			return true
		}
	}
	return false
}

// unitOf returns a catalogued metric's unit.
func unitOf(name string) string {
	for _, list := range [][]spec{endToEnd, printedOnly, perLayer} {
		for _, s := range list {
			if s.name == name {
				return s.unit
			}
		}
	}
	panic("perfbench: uncatalogued metric " + name)
}

// metrics builds a result map from name → value, taking units from the
// catalog.
func metrics(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(values))
	for n, v := range values {
		out[n] = metric{Value: v, Unit: unitOf(n)}
	}
	return out
}
