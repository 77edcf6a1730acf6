package kmeans

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"xbsim/internal/obs"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// blobs generates n points around each of the given centers with the given
// spread.
func blobs(rng *xrand.Stream, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var points [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + spread*rng.NormFloat64()
			}
			points = append(points, p)
			labels = append(labels, ci)
		}
	}
	return points, labels
}

func defaultCfg(seed string) Config {
	return Config{Rng: xrand.New(seed)}
}

func TestRecoverWellSeparatedClusters(t *testing.T) {
	rng := xrand.New("blobs")
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	points, labels := blobs(rng, centers, 30, 0.3)
	res, err := Run(points, nil, 3, defaultCfg("run"))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Every true cluster must map to exactly one k-means cluster.
	mapping := map[int]int{}
	for i, lab := range labels {
		c := res.Assignments[i]
		if prev, ok := mapping[lab]; ok {
			if prev != c {
				t.Fatalf("true cluster %d split across k-means clusters %d and %d", lab, prev, c)
			}
		} else {
			mapping[lab] = c
		}
	}
	if len(mapping) != 3 {
		t.Fatalf("true clusters merged: %v", mapping)
	}
}

func TestWeightsPullCentroid(t *testing.T) {
	// One cluster, two points; the heavy point should dominate the centroid.
	points := [][]float64{{0}, {10}}
	res, err := Run(points, []float64{9, 1}, 1, defaultCfg("w"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Centroids[0][0]; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("weighted centroid = %v, want 1.0", got)
	}
	if res.ClusterWeights[0] != 10 {
		t.Fatalf("cluster weight = %v", res.ClusterWeights[0])
	}
	if res.ClusterSizes[0] != 2 {
		t.Fatalf("cluster size = %v", res.ClusterSizes[0])
	}
}

func TestKClampedToDistinctPoints(t *testing.T) {
	points := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	res, err := Run(points, nil, 5, defaultCfg("clamp"))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Fatalf("K = %d > number of points", res.K)
	}
	if res.Distortion > 1e-9 {
		t.Fatalf("distortion %v for trivially separable data", res.Distortion)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Run(nil, nil, 2, defaultCfg("e")); err == nil {
		t.Error("no error for empty input")
	}
	if _, err := Run([][]float64{{1}}, nil, 0, defaultCfg("e")); err == nil {
		t.Error("no error for k=0")
	}
	if _, err := Run([][]float64{{1}}, nil, 1, Config{}); err == nil {
		t.Error("no error for missing rng")
	}
	if _, err := Run([][]float64{{1}, {1, 2}}, nil, 1, defaultCfg("e")); err == nil {
		t.Error("no error for ragged points")
	}
	if _, err := Run([][]float64{{1}}, []float64{0}, 1, defaultCfg("e")); err == nil {
		t.Error("no error for zero weight")
	}
	if _, err := Run([][]float64{{1}}, []float64{1, 2}, 1, defaultCfg("e")); err == nil {
		t.Error("no error for weight length mismatch")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := xrand.New("det-data")
	points, _ := blobs(rng, [][]float64{{0, 0}, {5, 5}}, 20, 0.5)
	a, err := Run(points, nil, 2, defaultCfg("det"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(points, nil, 2, defaultCfg("det"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignments differ at %d", i)
		}
	}
	if a.Distortion != b.Distortion {
		t.Fatal("distortions differ")
	}
}

func TestAssignmentsAreNearest(t *testing.T) {
	rng := xrand.New("nearest")
	points, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}, {-8, 8}}, 25, 1.0)
	res, err := Run(points, nil, 3, defaultCfg("nearest-run"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		got := res.Assignments[i]
		for c := range res.Centroids {
			if vecmath.SquaredDistance(p, res.Centroids[c]) <
				vecmath.SquaredDistance(p, res.Centroids[got])-1e-9 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, got, c)
			}
		}
	}
}

func TestDistortionDecreasesWithK(t *testing.T) {
	rng := xrand.New("monotone")
	points, _ := blobs(rng, [][]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}}, 20, 0.8)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := Run(points, nil, k, Config{Rng: xrand.New("m"), Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonicity from local optima, but the trend
		// must be firmly downward for well-separated blobs.
		if res.Distortion > prev*1.10+1e-9 {
			t.Fatalf("distortion increased sharply at k=%d: %v -> %v", k, prev, res.Distortion)
		}
		prev = res.Distortion
	}
}

func TestInitRandomWorks(t *testing.T) {
	rng := xrand.New("init-random")
	points, _ := blobs(rng, [][]float64{{0}, {100}}, 10, 0.1)
	res, err := Run(points, nil, 2, Config{Rng: xrand.New("ir"), Init: InitRandom, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	if res.Distortion > 1.0 {
		t.Fatalf("distortion %v too high for trivial data", res.Distortion)
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	rng := xrand.New("bic")
	points, _ := blobs(rng, [][]float64{{0, 0}, {20, 0}, {0, 20}}, 40, 0.5)
	scores := map[int]float64{}
	for k := 1; k <= 6; k++ {
		res, err := Run(points, nil, k, Config{Rng: xrand.New("bic-run"), Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		scores[k] = BIC(points, nil, res)
	}
	// The true k=3 must score better than underfit k=1,2.
	if scores[3] <= scores[1] || scores[3] <= scores[2] {
		t.Fatalf("BIC does not prefer true k: %v", scores)
	}
}

func TestBICWeightedMatchesReplicated(t *testing.T) {
	// A point with weight 3 should behave like 3 coincident points.
	base := [][]float64{{0, 0}, {1, 0}, {10, 10}}
	weights := []float64{3, 1, 2}
	var replicated [][]float64
	for i, p := range base {
		for j := 0; j < int(weights[i]); j++ {
			replicated = append(replicated, p)
		}
	}
	resW, err := Run(base, weights, 2, defaultCfg("bw"))
	if err != nil {
		t.Fatal(err)
	}
	resR, err := Run(replicated, nil, 2, defaultCfg("bw"))
	if err != nil {
		t.Fatal(err)
	}
	// Same total weight (6) and same geometry => same BIC up to numerics.
	bw := BIC(base, weights, resW)
	br := BIC(replicated, nil, resR)
	// The rescaling maps weighted n=3 to R=3, while replication has R=6;
	// so the scores differ by a deterministic function of R. We only check
	// the centroids match, which is the property clustering relies on.
	want := map[float64]bool{}
	for _, c := range resR.Centroids {
		want[c[0]+1000*c[1]] = true
	}
	for _, c := range resW.Centroids {
		key := c[0] + 1000*c[1]
		found := false
		for w := range want {
			if math.Abs(w-key) < 1e-6 {
				found = true
			}
		}
		if !found {
			t.Fatalf("weighted centroid %v not found in replicated run %v", resW.Centroids, resR.Centroids)
		}
	}
	_ = bw
	_ = br
}

func TestBICEmptyInput(t *testing.T) {
	if !math.IsInf(BIC(nil, nil, nil), -1) {
		t.Fatal("BIC of nothing should be -inf")
	}
}

func TestClusterAccountingProperty(t *testing.T) {
	rng := xrand.New("acct")
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 2
		k := int(kRaw%5) + 1
		points := make([][]float64, n)
		weights := make([]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			weights[i] = rng.Float64() + 0.1
		}
		res, err := Run(points, weights, k, Config{Rng: rng.SplitIndexed("q", int(nRaw)*7+int(kRaw)), Restarts: 2})
		if err != nil {
			return false
		}
		// Sizes sum to n, weights sum to total weight, assignments in range.
		var sizeSum int
		var wSum float64
		for c := 0; c < res.K; c++ {
			sizeSum += res.ClusterSizes[c]
			wSum += res.ClusterWeights[c]
		}
		if sizeSum != n {
			return false
		}
		var wantW float64
		for _, w := range weights {
			wantW += w
		}
		if math.Abs(wSum-wantW) > 1e-9 {
			return false
		}
		for _, a := range res.Assignments {
			if a < 0 || a >= res.K {
				return false
			}
		}
		return res.Distortion >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKMeans(b *testing.B) {
	rng := xrand.New("bench-km")
	points, _ := blobs(rng, [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}, 250, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(points, nil, 4, Config{Rng: xrand.NewFromUint64(uint64(i)), Restarts: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// The brute-force reference: Lloyd's algorithm and k-means++ seeding
// over [][]float64, with every distance computed and every buffer
// freshly allocated. Run must reproduce it bit for bit.

// refRun is Run's restart loop over the reference, returning the winning
// result and each restart's Lloyd iteration count.
func refRun(points [][]float64, weights []float64, k int, cfg Config) (*Result, []uint64) {
	if k > len(points) {
		k = len(points)
	}
	cfg = cfg.withDefaults()
	iters := make([]uint64, cfg.Restarts)
	var best *Result
	for r := range iters {
		var res *Result
		res, iters[r] = refRunOnce(points, weights, k, cfg, cfg.Rng.SplitIndexed("restart", r))
		if best == nil || res.Distortion < best.Distortion {
			best = res
		}
	}
	return best, iters
}

func refRunOnce(points [][]float64, weights []float64, k int, cfg Config, rng *xrand.Stream) (*Result, uint64) {
	var centroids [][]float64
	if cfg.Init == InitRandom {
		centroids = refInitRandom(points, k, rng)
	} else {
		centroids = refInitPlusPlus(points, weights, k, rng)
	}
	k = len(centroids)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	var iters uint64
	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters++
		changed := refAssignAll(points, centroids, assign)
		refRecomputeCentroids(points, weights, assign, centroids)
		if !changed && iter > 0 {
			break
		}
	}
	refAssignAll(points, centroids, assign)

	res := &Result{
		K:              k,
		Assignments:    assign,
		Centroids:      centroids,
		ClusterWeights: make([]float64, k),
		ClusterSizes:   make([]int, k),
	}
	for i, c := range assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		res.ClusterWeights[c] += w
		res.ClusterSizes[c]++
		res.Distortion += w * vecmath.SquaredDistance(points[i], centroids[c])
	}
	return res, iters
}

func refAssignAll(points [][]float64, centroids [][]float64, assign []int) bool {
	changed := false
	for i, p := range points {
		bestC, bestD := 0, math.Inf(1)
		for c, ctr := range centroids {
			if d := vecmath.SquaredDistance(p, ctr); d < bestD {
				bestC, bestD = c, d
			}
		}
		if assign[i] != bestC {
			assign[i] = bestC
			changed = true
		}
	}
	return changed
}

func refRecomputeCentroids(points [][]float64, weights []float64, assign []int, centroids [][]float64) {
	dim := len(points[0])
	sums := make([][]float64, len(centroids))
	totals := make([]float64, len(centroids))
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for i, c := range assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		vecmath.AddScaled(sums[c], points[i], w)
		totals[c] += w
	}
	var empty []int
	for c := range centroids {
		if totals[c] > 0 {
			vecmath.Scale(sums[c], 1/totals[c])
			centroids[c] = sums[c]
		} else {
			empty = append(empty, c)
		}
	}
	used := make(map[int]bool, len(empty))
	for _, c := range empty {
		farthest, farD := -1, -1.0
		for i, p := range points {
			if used[i] {
				continue
			}
			d := vecmath.SquaredDistance(p, centroids[assign[i]])
			if d > farD {
				farthest, farD = i, d
			}
		}
		if farthest < 0 {
			farthest = 0
		}
		used[farthest] = true
		centroids[c] = append([]float64(nil), points[farthest]...)
	}
}

func refInitRandom(points [][]float64, k int, rng *xrand.Stream) [][]float64 {
	perm := rng.Perm(len(points))
	centroids := make([][]float64, 0, k)
	for _, i := range perm {
		if containsVec(centroids, points[i]) {
			continue
		}
		centroids = append(centroids, append([]float64(nil), points[i]...))
		if len(centroids) == k {
			break
		}
	}
	return centroids
}

func refInitPlusPlus(points [][]float64, weights []float64, k int, rng *xrand.Stream) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = vecmath.SquaredDistance(points[i], centroids[0])
	}
	probs := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i := range probs {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			probs[i] = w * minDist[i]
			total += probs[i]
		}
		if total == 0 {
			break
		}
		next := rng.Pick(probs)
		centroids = append(centroids, append([]float64(nil), points[next]...))
		for i := range minDist {
			if d := vecmath.SquaredDistance(points[i], centroids[len(centroids)-1]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return centroids
}

// containsVec reports whether vs contains a vector equal to p.
func containsVec(vs [][]float64, p []float64) bool {
	for _, v := range vs {
		if sameVec(v, p) {
			return true
		}
	}
	return false
}

// checkExact runs the pruned clustering and the reference on the same
// input and fails unless every result bit and every restart's iteration
// count agree.
func checkExact(t testing.TB, points [][]float64, weights []float64, k int, cfg Config) {
	t.Helper()
	got, gotIters := run(points, weights, k, cfg)
	want, wantIters := refRun(points, weights, k, cfg)
	if diff := resultDiff(got, want); diff != "" {
		t.Fatalf("k=%d init=%d weighted=%v: %s", k, cfg.Init, weights != nil, diff)
	}
	if !slices.Equal(gotIters, wantIters) {
		t.Fatalf("k=%d init=%d weighted=%v: iterations per restart %v, reference %v",
			k, cfg.Init, weights != nil, gotIters, wantIters)
	}
}

// resultDiff describes the first difference between two results,
// comparing floats by their bits; "" means bitwise equal.
func resultDiff(got, want *Result) string {
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case got.K != want.K:
		return fmt.Sprintf("K %d, reference %d", got.K, want.K)
	case !slices.Equal(got.Assignments, want.Assignments):
		return fmt.Sprintf("assignments %v, reference %v", got.Assignments, want.Assignments)
	case math.Float64bits(got.Distortion) != math.Float64bits(want.Distortion):
		return fmt.Sprintf("distortion %v, reference %v", got.Distortion, want.Distortion)
	case !bitsEqual(got.ClusterWeights, want.ClusterWeights):
		return fmt.Sprintf("cluster weights %v, reference %v", got.ClusterWeights, want.ClusterWeights)
	case !slices.Equal(got.ClusterSizes, want.ClusterSizes):
		return fmt.Sprintf("cluster sizes %v, reference %v", got.ClusterSizes, want.ClusterSizes)
	case len(got.Centroids) != len(want.Centroids):
		return fmt.Sprintf("%d centroids, reference %d", len(got.Centroids), len(want.Centroids))
	}
	for c := range got.Centroids {
		if !bitsEqual(got.Centroids[c], want.Centroids[c]) {
			return fmt.Sprintf("centroid %d = %v, reference %v", c, got.Centroids[c], want.Centroids[c])
		}
	}
	return ""
}

// exactnessCase is one clustering input for the exactness tests.
type exactnessCase struct {
	name   string
	points [][]float64
}

func exactnessCases() []exactnessCase {
	rng := xrand.New("exactness")
	blobs2, _ := blobs(rng, [][]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}, {3, 3}}, 12, 0.9)
	centers15 := make([][]float64, 6)
	for c := range centers15 {
		centers15[c] = make([]float64, 15)
		for j := range centers15[c] {
			centers15[c][j] = rng.Float64()
		}
	}
	blobs15, _ := blobs(rng, centers15, 10, 0.08)
	// Exact duplicates: every point appears three times.
	var dups [][]float64
	for _, p := range blobs2[:15] {
		for r := 0; r < 3; r++ {
			dups = append(dups, append([]float64(nil), p...))
		}
	}
	// A symmetric grid: many points are exactly equidistant from two or
	// more centroids, so ties must fall to the lowest index.
	var grid [][]float64
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			grid = append(grid, []float64{float64(x), float64(y)})
		}
	}
	// A 1-D line of evenly spaced points: midpoints tie exactly.
	var line [][]float64
	for x := 0; x < 17; x++ {
		line = append(line, []float64{float64(x) * 0.5})
	}
	return []exactnessCase{
		{"blobs-2d", blobs2},
		{"blobs-15d", blobs15},
		{"duplicates", dups},
		{"grid", grid},
		{"line", line},
	}
}

// Run must give exactly the brute-force result: for blobs, duplicate
// points and equidistant ties, weighted and unweighted, both seedings,
// and every k from 1 to n.
func TestRunMatchesBruteForce(t *testing.T) {
	for _, tc := range exactnessCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.points)
			weights := make([]float64, n)
			wr := xrand.New("weights/" + tc.name)
			for i := range weights {
				weights[i] = float64(1 + wr.Intn(9))
			}
			for _, init := range []InitMethod{InitPlusPlus, InitRandom} {
				for _, w := range [][]float64{nil, weights} {
					for k := 1; k <= n; k++ {
						cfg := Config{Rng: xrand.New(tc.name).SplitIndexed("k", k), Init: init, Restarts: 3}
						checkExact(t, tc.points, w, k, cfg)
					}
				}
			}
		})
	}
}

// Pruning must actually happen at the clustering shape SimPoint runs,
// and the counters must account for it once per Run.
func TestPruningCounters(t *testing.T) {
	tc := exactnessCases()[1] // blobs-15d
	o := obs.New()
	cfg := Config{Rng: xrand.New("counters"), Restarts: 4, Obs: o}
	checkExact(t, tc.points, nil, 6, cfg)
	snap := o.Metrics.Snapshot()
	computed, pruned := snap.Counters["kmeans.distances"], snap.Counters["kmeans.distances_pruned"]
	if computed == 0 || pruned == 0 {
		t.Fatalf("kmeans.distances = %d, kmeans.distances_pruned = %d; want both > 0", computed, pruned)
	}
	if snap.Counters["kmeans.runs"] != 1 {
		t.Fatalf("kmeans.runs = %d, want 1", snap.Counters["kmeans.runs"])
	}
}

// FuzzKMeansExact checks bit-exactness against the brute-force reference
// on arbitrary small inputs. Coordinates come from a coarse grid, so
// duplicates and exact ties are common.
func FuzzKMeansExact(f *testing.F) {
	f.Add([]byte{0, 0, 4, 4, 8, 8, 0, 8, 8, 0, 4, 4}, uint8(2), uint8(3), false, false, uint64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(1), uint8(5), true, false, uint64(2))
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2, 2, 250, 250, 250, 250}, uint8(4), uint8(6), true, true, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw, kRaw uint8, weighted, random bool, seed uint64) {
		dim := int(dimRaw%4) + 1
		n := len(data) / dim
		if n == 0 || n > 48 {
			return
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = float64(int8(data[i*dim+j])) / 4
			}
		}
		var weights []float64
		if weighted {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = float64(data[i]%7) + 0.5
			}
		}
		cfg := Config{Rng: xrand.NewFromUint64(seed), Restarts: 2}
		if random {
			cfg.Init = InitRandom
		}
		checkExact(t, points, weights, int(kRaw)%n+1, cfg)
	})
}

// BenchmarkSweep is one SimPoint k-sweep at the shape of fine intervals:
// k = 1..30 with 5 restarts each over 700 points in 15 dimensions.
func BenchmarkSweep(b *testing.B) {
	rng := xrand.New("bench-sweep")
	centers := make([][]float64, 12)
	for c := range centers {
		centers[c] = make([]float64, 15)
		for j := range centers[c] {
			centers[c][j] = 2*rng.Float64() - 1
		}
	}
	points, _ := blobs(rng, centers, 700/len(centers)+1, 0.15)
	points = points[:700]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 30; k++ {
			if _, err := Run(points, nil, k, Config{Rng: xrand.NewFromUint64(uint64(k))}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
