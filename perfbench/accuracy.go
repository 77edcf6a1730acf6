package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"xbsim/internal/experiment"
)

// accuracy holds the paper's accuracy and cost figures for a set of
// evaluated programs, in percent.
type accuracy struct {
	vliCPI, fliCPI, vliSpeedup, vliDetail float64
}

// accuracyOf reads the accuracy and cost figures off one suite's
// export: Figure 3's Avg row for VLI and FLI, the mean of the four
// vli_* Avg rows of Figures 4 and 5, and Σ VLI simulated instructions /
// Σ instructions.
func accuracyOf(e *experiment.SuiteExport) accuracy {
	var a accuracy
	var speedup []float64
	for _, f := range e.Figures {
		for _, s := range f.Series {
			avg := 100 * s.Values[len(s.Values)-1] // the figure's Avg row
			switch {
			case f.ID == "fig3" && s.Name == "VLI":
				a.vliCPI = avg
			case f.ID == "fig3" && s.Name == "FLI":
				a.fliCPI = avg
			case (f.ID == "fig4" || f.ID == "fig5") && strings.HasPrefix(s.Name, "vli_"):
				speedup = append(speedup, avg)
			}
		}
	}
	a.vliSpeedup = mean(speedup)
	var simulated float64
	for _, b := range e.Benchmarks {
		for _, r := range b.Runs {
			simulated += float64(r.VLI.SimulatedInstrs)
		}
	}
	a.vliDetail = 100 * simulated / instructions(e)
	return a
}

// instructions is Σ instructions over every binary run of an export.
func instructions(e *experiment.SuiteExport) float64 {
	var total float64
	for _, b := range e.Benchmarks {
		for _, r := range b.Runs {
			total += float64(r.Instructions)
		}
	}
	return total
}

func (a accuracy) into(m map[string]float64) {
	m["vli_cpi_err_pct"] = a.vliCPI
	m["fli_cpi_err_pct"] = a.fliCPI
	m["vli_speedup_err_pct"] = a.vliSpeedup
	m["vli_detail_pct"] = a.vliDetail
}

//go:embed expected.json
var expectedJSON []byte

// expectedFingerprint returns the output fingerprint pinned for the
// workload at the default seed.
func expectedFingerprint(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	fp, ok := m[workload]
	if !ok {
		return "", fmt.Errorf("expected.json pins no fingerprint for %s", workload)
	}
	return fp, nil
}

// checkFingerprint compares a default-seed output fingerprint with the
// pinned one; other seeds have nothing pinned.
func checkFingerprint(t *tally, workload string, seed uint64, fp string, n int) {
	if seed != defaultSeed {
		return
	}
	want, err := expectedFingerprint(workload)
	if err != nil {
		t.fail(n, "%v (got %s)", err, fp)
		return
	}
	if fp != want {
		t.fail(n, "%s fingerprint %s, expected.json pins %s", workload, fp, want)
	}
}
