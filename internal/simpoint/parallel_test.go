package simpoint

import (
	"math"
	"reflect"
	"testing"

	"xbsim/internal/pool"
	"xbsim/internal/xrand"
)

// A pooled sweep must choose the identical clustering, points, weights,
// and BIC trace as the serial sweep.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ds, _ := phasedDataset(3, 4, 3, 0.05, "parallel-sweep")
	serial, err := Pick(ds, Config{MaxK: 8, Seed: "psweep"})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Pick(ds, Config{MaxK: 8, Seed: "psweep", Pool: pool.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("pooled sweep differs from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// Non-finite BIC scores must be excluded from the min-max normalization
// instead of poisoning it into silently choosing the maximum k.
func TestChooseKSkipsNonFiniteScores(t *testing.T) {
	nan, negInf := math.NaN(), math.Inf(-1)

	// A NaN (or -Inf) among otherwise plateauing scores: the plateau
	// still wins and the poisoned k is never chosen.
	if got := chooseK([]float64{nan, -100, -5, -4, -3}, 0.9); got != 3 {
		t.Fatalf("chooseK with NaN = %d, want 3", got)
	}
	if got := chooseK([]float64{negInf, -100, -5, -4, -3}, 0.9); got != 3 {
		t.Fatalf("chooseK with -Inf = %d, want 3", got)
	}
	// Before the fix, -Inf stretched the range so no norm reached the
	// threshold and the maximum k was chosen; the degenerate k itself
	// must also never be returned.
	if got := chooseK([]float64{-5, -4, nan}, 0.9); got == 3 {
		t.Fatal("chooseK returned the non-finite k")
	}

	// Only one finite score: that k is the only defensible choice.
	if got := chooseK([]float64{nan, negInf, -7, nan}, 0.9); got != 3 {
		t.Fatalf("chooseK single finite = %d, want 3", got)
	}
	// Equal finite scores around non-finite holes: smallest finite k.
	if got := chooseK([]float64{nan, -7, -7}, 0.9); got != 2 {
		t.Fatalf("chooseK flat finite = %d, want 2", got)
	}
	// Nothing finite at all: fall back to k = 1.
	if got := chooseK([]float64{nan, negInf, math.Inf(1)}, 0.9); got != 1 {
		t.Fatalf("chooseK all non-finite = %d, want 1", got)
	}
}

// A k-sweep at the fine-interval shape (700 intervals, Dim 15, MaxK 30,
// 5 restarts, no pool) must allocate a bounded number of times per k:
// k-means reuses its scratch across Lloyd iterations, restarts and k
// values and materializes only each k's winning result. Allocating per
// Lloyd iteration would cost about 33,000 allocations on this input.
func TestPickSweepAllocsScaleWithMaxK(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ds, _ := phasedDataset(7, 10, 10, 0.05, "alloc-pin")
	cfg := Config{MaxK: 30, Dim: 15, Restarts: 5, Seed: "alloc-pin"}
	pick := testing.AllocsPerRun(3, func() {
		if _, err := Pick(ds, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Projection allocates per interval, not per k; leave it out.
	project := testing.AllocsPerRun(3, func() {
		if _, err := ds.Project(cfg.Dim, xrand.New("simpoint/"+cfg.Seed).Split("projection")); err != nil {
			t.Fatal(err)
		}
	})
	if sweep, limit := pick-project, float64(40*cfg.MaxK); sweep > limit {
		t.Fatalf("k-sweep made %.0f allocations (Pick %.0f, projection %.0f), want at most %.0f = 40 per k",
			sweep, pick, project, limit)
	}
}
