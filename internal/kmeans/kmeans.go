// Package kmeans implements weighted k-means clustering with k-means++
// seeding, multiple restarts, and the Bayesian Information Criterion (BIC)
// score SimPoint uses to choose the number of clusters.
//
// SimPoint 3.0 clusters projected basic block vectors for a range of k and
// keeps the smallest k whose BIC is close to the best observed (Hamerly et
// al., JILP 2005). For variable length intervals each point carries a
// weight — its dynamic instruction count — and both the centroid updates
// and the BIC likelihood treat a point of weight w like w identical copies.
//
// Lloyd assignment and k-means++ seeding skip the distance computations
// that triangle-inequality bounds prove cannot change the outcome
// (Hamerly, "Making k-means even faster", SDM 2010), so every result is
// bit-identical to the brute-force algorithm's.
package kmeans

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"xbsim/internal/obs"
	"xbsim/internal/pool"
	"xbsim/internal/vecmath"
	"xbsim/internal/xrand"
)

// InitMethod selects how initial centroids are chosen.
type InitMethod int

const (
	// InitPlusPlus is k-means++ seeding: iteratively pick centers with
	// probability proportional to squared distance from the nearest chosen
	// center (weighted by point weight). This is the default.
	InitPlusPlus InitMethod = iota
	// InitRandom picks k distinct points uniformly at random, matching the
	// original SimPoint implementation's sampled initialization.
	InitRandom
)

// Config controls a clustering run.
type Config struct {
	// MaxIters bounds Lloyd iterations per restart. <= 0 means 100.
	MaxIters int
	// Restarts is the number of random restarts; the lowest-distortion run
	// wins. <= 0 means 5.
	Restarts int
	// Init selects the seeding method.
	Init InitMethod
	// Rng supplies all randomness. Required.
	Rng *xrand.Stream
	// Obs, when non-nil, receives clustering metrics (restart and Lloyd
	// iteration counters, iteration histograms). Nil records nothing.
	Obs *obs.Observer
	// Pool, when non-nil, runs the restarts concurrently. Each restart
	// draws from its own SplitIndexed stream and lands in an
	// index-addressed slot, so the result is identical to a serial run.
	Pool *pool.Pool
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 100
	}
	if c.Restarts <= 0 {
		c.Restarts = 5
	}
	return c
}

// Result is a completed clustering.
type Result struct {
	// K is the number of clusters actually produced (== requested k unless
	// there were fewer distinct points).
	K int
	// Assignments maps each point index to a cluster in [0, K).
	Assignments []int
	// Centroids holds the K cluster centers.
	Centroids [][]float64
	// Distortion is the weighted sum of squared distances of points to
	// their assigned centroid.
	Distortion float64
	// ClusterWeights[c] is the total weight assigned to cluster c.
	ClusterWeights []float64
	// ClusterSizes[c] is the number of points assigned to cluster c.
	ClusterSizes []int
}

// Run clusters points into (at most) k clusters. weights may be nil for
// unweighted clustering; otherwise it must be the same length as points
// with positive entries. It returns an error for invalid inputs.
func Run(points [][]float64, weights []float64, k int, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: k = %d", k)
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("kmeans: Config.Rng is required")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if weights != nil {
		if len(weights) != len(points) {
			return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), len(points))
		}
		for i, w := range weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("kmeans: weight %d = %v must be positive and finite", i, w)
			}
		}
	}
	res, _ := run(points, weights, k, cfg)
	return res, nil
}

// run clusters validated input and also returns each restart's Lloyd
// iteration count.
func run(points [][]float64, weights []float64, k int, cfg Config) (*Result, []uint64) {
	if k > len(points) {
		k = len(points)
	}
	cfg = cfg.withDefaults()
	d := getDataset(points, weights)
	defer func() {
		d.weights = nil // do not pin the caller's slice in the pool
		datasetPool.Put(d)
	}()

	// Restarts run concurrently (when a pool is configured), each in its
	// own scratch, into index-addressed slots; the reduction below scans
	// them in restart order, so the winner — including tie-breaks on
	// equal distortion — is exactly the one the serial loop would keep.
	restarts := make([]*scratch, cfg.Restarts)
	_ = cfg.Pool.Run(cfg.Restarts, func(r int) error {
		s := scratchPool.Get().(*scratch)
		s.runOnce(d, k, cfg, cfg.Rng.SplitIndexed("restart", r))
		restarts[r] = s
		return nil
	})
	iters := make([]uint64, cfg.Restarts)
	best := 0
	var totalIters, distances, pruned uint64
	for r, s := range restarts {
		iters[r] = s.iters
		totalIters += s.iters
		distances += s.distances
		pruned += s.pruned
		cfg.Obs.Histogram("kmeans.iterations_per_restart").Observe(s.iters)
		if s.distortion < restarts[best].distortion {
			best = r
		}
	}
	res := restarts[best].result(d)
	for _, s := range restarts {
		scratchPool.Put(s)
	}
	cfg.Obs.Counter("kmeans.runs").Inc()
	cfg.Obs.Counter("kmeans.restarts").Add(uint64(cfg.Restarts))
	cfg.Obs.Counter("kmeans.iterations").Add(totalIters)
	cfg.Obs.Counter("kmeans.distances").Add(distances)
	cfg.Obs.Counter("kmeans.distances_pruned").Add(pruned)
	return res, iters
}

// boundMargin is the relative slack, against the diagonal of the data's
// bounding box, that every pruning test must clear. Rounding in the
// bounds is many orders of magnitude smaller, so a test that passes
// proves the skipped distance could not have changed the outcome of
// the exact comparison it replaces.
const boundMargin = 1e-9

// dataset is a clustering input in row-major layout: point i occupies
// flat[i*dim : (i+1)*dim]. It is read-only while restarts run.
type dataset struct {
	flat    []float64
	weights []float64 // nil means unweighted
	n, dim  int
	// slack is boundMargin times the bounding-box diagonal, which bounds
	// every point-to-centroid and centroid-to-centroid distance.
	slack float64
}

func (d *dataset) row(i int) []float64 { return d.flat[i*d.dim : (i+1)*d.dim] }

// weight returns point i's weight; 1 when the clustering is unweighted.
func (d *dataset) weight(i int) float64 {
	if d.weights == nil {
		return 1
	}
	return d.weights[i]
}

var (
	datasetPool = sync.Pool{New: func() any { return new(dataset) }}
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
)

// getDataset flattens points into a pooled dataset.
func getDataset(points [][]float64, weights []float64) *dataset {
	d := datasetPool.Get().(*dataset)
	d.n, d.dim, d.weights = len(points), len(points[0]), weights
	d.flat = grow(d.flat, d.n*d.dim)
	for i, p := range points {
		copy(d.row(i), p)
	}
	var diag2 float64
	for j := 0; j < d.dim; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := j; i < len(d.flat); i += d.dim {
			lo, hi = min(lo, d.flat[i]), max(hi, d.flat[i])
		}
		diag2 += (hi - lo) * (hi - lo)
	}
	d.slack = boundMargin * math.Sqrt(diag2)
	return d
}

// scratch is one restart's working memory. Pooled scratch is reused
// across Lloyd iterations, restarts and k values; concurrent restarts
// each hold their own.
type scratch struct {
	k int // centroids actually seeded; may be below the requested k
	// centroids and sums are k×dim row-major.
	centroids, sums []float64
	totals          []float64 // per-cluster weight in recomputeCentroids
	assign          []int
	// Hamerly bounds: upper[i] bounds the distance from point i to its
	// assigned centroid from above, lower[i] the distance to every other
	// centroid from below; half[c] is half the distance from centroid c
	// to its nearest other centroid; move[c] is how far c moved in the
	// last recomputeCentroids.
	upper, lower, half, move []float64
	// k-means++ seeding: minDist[i] is the squared distance from point i
	// to nearest[i], its nearest chosen center; gap[c] is the squared
	// distance from center c to the newest center.
	minDist, probs, gap []float64
	nearest, perm, cand []int // cand: points a new center may bring closer
	reseeded            []int // points adopted by empty clusters in one pass

	distortion        float64
	iters             uint64
	distances, pruned uint64
}

// grow returns b resized to n, reallocating with doubled capacity when
// it is too small, so a k-sweep reallocates O(log k) times, not per k.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

func (s *scratch) centroid(c, dim int) []float64 { return s.centroids[c*dim : (c+1)*dim] }

// runOnce performs one seeded clustering into s: the final assignments,
// centroids, distortion and the number of Lloyd iterations it took.
func (s *scratch) runOnce(d *dataset, k int, cfg Config, rng *xrand.Stream) {
	s.iters, s.distances, s.pruned = 0, 0, 0
	s.centroids = grow(s.centroids, k*d.dim)
	if cfg.Init == InitRandom {
		s.initRandom(d, k, rng)
	} else {
		s.initPlusPlus(d, k, rng)
	}
	s.sums = grow(s.sums, s.k*d.dim)
	s.totals = grow(s.totals, s.k)
	s.half = grow(s.half, s.k)
	s.move = grow(s.move, s.k)
	s.upper = grow(s.upper, d.n)
	s.lower = grow(s.lower, d.n)
	s.assign = grow(s.assign, d.n)
	for i := range s.assign {
		s.assign[i] = -1
	}

	for iter := 0; iter < cfg.MaxIters; iter++ {
		s.iters++
		changed := s.assignAll(d)
		s.recomputeCentroids(d)
		s.widenBounds()
		if !changed && iter > 0 {
			break
		}
	}
	// Final assignment against the final centroids.
	s.assignAll(d)

	s.distortion = 0
	for i, c := range s.assign {
		s.distortion += d.weight(i) * sqDist(d.row(i), s.centroid(c, d.dim))
	}
	s.distances += uint64(d.n)
}

// result materializes the clustering held in s.
func (s *scratch) result(d *dataset) *Result {
	res := &Result{
		K:              s.k,
		Assignments:    append([]int(nil), s.assign...),
		Centroids:      make([][]float64, s.k),
		Distortion:     s.distortion,
		ClusterWeights: make([]float64, s.k),
		ClusterSizes:   make([]int, s.k),
	}
	flat := append([]float64(nil), s.centroids[:s.k*d.dim]...)
	for c := range res.Centroids {
		res.Centroids[c] = flat[c*d.dim : (c+1)*d.dim : (c+1)*d.dim]
	}
	for i, c := range s.assign {
		res.ClusterWeights[c] += d.weight(i)
		res.ClusterSizes[c]++
	}
	return res
}

// sqDist is vecmath.SquaredDistance for rows of equal length, summed in
// the same order so every distance is bit-identical to it.
func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var sum float64
	for i := range a {
		x := a[i] - b[i]
		sum += x * x
	}
	return sum
}

// sqDist4 returns the squared distances from p to r0, r1, r2 and r3.
// The four sums are independent, so the processor overlaps them, and
// each is summed in index order, so it is bit-identical to sqDist.
// (Negating a difference does not change its square.)
func sqDist4(p, r0, r1, r2, r3 []float64) (float64, float64, float64, float64) {
	r0, r1, r2, r3 = r0[:len(p)], r1[:len(p)], r2[:len(p)], r3[:len(p)]
	var s0, s1, s2, s3 float64
	for i, x := range p {
		y0, y1, y2, y3 := x-r0[i], x-r1[i], x-r2[i], x-r3[i]
		s0 += y0 * y0
		s1 += y1 * y1
		s2 += y2 * y2
		s3 += y3 * y3
	}
	return s0, s1, s2, s3
}

// nearer folds centroid c at squared distance dist into a scan's running
// nearest and second-nearest distances. Only a strictly smaller distance
// displaces the nearest, so ties go to the lowest index.
func nearer(c int, dist float64, bestC int, bestD, second float64) (int, float64, float64) {
	if dist < bestD {
		return c, dist, bestD
	}
	if dist < second {
		second = dist
	}
	return bestC, bestD, second
}

// assignAll assigns each point to its nearest centroid, returning whether
// any assignment changed. Every assignment is the one a full scan makes
// (the first strictly smallest squared distance in index order): a point
// skips the scan only when its bounds prove, with slack to spare, that
// its centroid is strictly the nearest.
func (s *scratch) assignAll(d *dataset) bool {
	s.updateHalfGaps(d.dim)
	changed := false
	for i := 0; i < d.n; i++ {
		p := d.row(i)
		a := s.assign[i]
		if a >= 0 {
			m := max(s.lower[i], s.half[a])
			if s.upper[i]+d.slack < m {
				s.pruned += uint64(s.k)
				continue
			}
			s.upper[i] = math.Sqrt(sqDist(p, s.centroid(a, d.dim)))
			s.distances++
			if s.upper[i]+d.slack < m {
				s.pruned += uint64(s.k - 1)
				continue
			}
		}
		bestC, bestD, second := s.scan(p, d.dim)
		s.distances += uint64(s.k)
		s.upper[i], s.lower[i] = math.Sqrt(bestD), math.Sqrt(second)
		if a != bestC {
			s.assign[i] = bestC
			changed = true
		}
	}
	return changed
}

// scan is the exact scan over all centroids in index order, four at a
// time: it returns the nearest centroid, its squared distance and the
// second-smallest squared distance.
func (s *scratch) scan(p []float64, dim int) (bestC int, bestD, second float64) {
	bestD, second = math.Inf(1), math.Inf(1)
	if s.k < 4 {
		for c := 0; c < s.k; c++ {
			bestC, bestD, second = nearer(c, sqDist(p, s.centroid(c, dim)), bestC, bestD, second)
		}
		return bestC, bestD, second
	}
	for c := 0; c < s.k; c += 4 {
		// When k is not a multiple of four the last block overlaps the
		// one before; its centroids already folded are skipped.
		b := min(c, s.k-4)
		var dist [4]float64
		dist[0], dist[1], dist[2], dist[3] = sqDist4(p,
			s.centroid(b, dim), s.centroid(b+1, dim), s.centroid(b+2, dim), s.centroid(b+3, dim))
		for j := c; j < b+4; j++ {
			bestC, bestD, second = nearer(j, dist[j-b], bestC, bestD, second)
		}
	}
	return bestC, bestD, second
}

// updateHalfGaps sets half[c] to half the distance from centroid c to its
// nearest other centroid (+Inf when there is none). A point whose
// distance to its own centroid is below that cannot be closer to any
// other centroid, by the triangle inequality.
func (s *scratch) updateHalfGaps(dim int) {
	for c := range s.half {
		s.half[c] = math.Inf(1)
	}
	for c := 0; c < s.k; c++ {
		for o := c + 1; o < s.k; o++ {
			dist := sqDist(s.centroid(c, dim), s.centroid(o, dim))
			if dist < s.half[c] {
				s.half[c] = dist
			}
			if dist < s.half[o] {
				s.half[o] = dist
			}
		}
	}
	s.distances += uint64(s.k * (s.k - 1) / 2)
	for c := range s.half {
		s.half[c] = math.Sqrt(s.half[c]) / 2
	}
}

// widenBounds keeps every point's bounds valid after the centroids moved:
// the upper bound grows by its own centroid's move, the lower bound
// shrinks by the largest move of any other centroid. A move that is not
// a number (a centroid leaving or entering NaN) invalidates every bound.
func (s *scratch) widenBounds() {
	maxMove, secondMove, maxC := 0.0, 0.0, -1
	for c, mv := range s.move {
		if math.IsNaN(mv) {
			mv = math.Inf(1)
			s.move[c] = mv
		}
		if mv > maxMove {
			maxMove, secondMove, maxC = mv, maxMove, c
		} else if mv > secondMove {
			secondMove = mv
		}
	}
	for i, a := range s.assign {
		s.upper[i] += s.move[a]
		if a == maxC {
			s.lower[i] -= secondMove
		} else {
			s.lower[i] -= maxMove
		}
	}
}

// recomputeCentroids sets each centroid to the weighted mean of its
// points and records in move how far each centroid moved. An empty
// cluster is re-seeded with the point farthest from its centroid.
func (s *scratch) recomputeCentroids(d *dataset) {
	dim := d.dim
	sums := s.sums[:s.k*dim]
	for j := range sums {
		sums[j] = 0
	}
	for c := range s.totals {
		s.totals[c] = 0
	}
	for i, c := range s.assign {
		w := d.weight(i)
		sum := sums[c*dim : (c+1)*dim]
		for j, x := range d.row(i) {
			sum[j] += w * x
		}
		s.totals[c] += w
	}
	for c := 0; c < s.k; c++ {
		if s.totals[c] > 0 {
			mean := sums[c*dim : (c+1)*dim]
			vecmath.Scale(mean, 1/s.totals[c])
			s.move[c] = math.Sqrt(sqDist(s.centroid(c, dim), mean))
			copy(s.centroid(c, dim), mean)
		}
	}
	s.distances += uint64(s.k)
	// Empty clusters are re-seeded with the point farthest from its
	// assigned centroid, which splits the most spread-out cluster. The
	// re-seeding is iterative: each pick sees the centroids refreshed by
	// earlier picks and excludes already-used points, so two clusters
	// emptied in the same pass never adopt the same point.
	s.reseeded = s.reseeded[:0]
	for c := 0; c < s.k; c++ {
		if s.totals[c] > 0 {
			continue
		}
		farthest, farD := -1, -1.0
		for i := 0; i < d.n; i++ {
			if slices.Contains(s.reseeded, i) {
				continue
			}
			dist := sqDist(d.row(i), s.centroid(s.assign[i], dim))
			if dist > farD {
				farthest, farD = i, dist
			}
		}
		s.distances += uint64(d.n)
		if farthest < 0 {
			// More empty clusters than points left; k <= len(points)
			// makes this unreachable, but degrade gracefully anyway.
			farthest = 0
		}
		s.reseeded = append(s.reseeded, farthest)
		s.move[c] = math.Sqrt(sqDist(s.centroid(c, dim), d.row(farthest)))
		copy(s.centroid(c, dim), d.row(farthest))
	}
}

// initRandom seeds with up to k distinct points in random order.
func (s *scratch) initRandom(d *dataset, k int, rng *xrand.Stream) {
	s.perm = grow(s.perm, d.n)
	for i := range s.perm {
		s.perm[i] = i
	}
	rng.ShuffleInts(s.perm)
	s.k = 0
	for _, i := range s.perm {
		if containsRow(s.centroids[:s.k*d.dim], d.row(i)) {
			continue
		}
		copy(s.centroid(s.k, d.dim), d.row(i))
		s.k++
		if s.k == k {
			break
		}
	}
}

// sameVec reports whether two vectors are numerically identical. IEEE
// equality deliberately treats -0 and 0 as the same coordinate, unlike
// their printed forms.
func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsRow reports whether the row-major rows contain a row equal to p.
func containsRow(rows, p []float64) bool {
	for r := 0; r < len(rows); r += len(p) {
		if sameVec(rows[r:r+len(p)], p) {
			return true
		}
	}
	return false
}

// initPlusPlus is k-means++ seeding. Adding a center can only lower a
// point's minDist if the new center lies within twice that distance of
// the point's nearest center (triangle inequality); points farther away
// are skipped without computing their distance.
func (s *scratch) initPlusPlus(d *dataset, k int, rng *xrand.Stream) {
	s.minDist = grow(s.minDist, d.n)
	s.probs = grow(s.probs, d.n)
	s.nearest = grow(s.nearest, d.n)
	s.gap = grow(s.gap, k)
	s.cand = grow(s.cand, d.n)

	copy(s.centroid(0, d.dim), d.row(rng.Intn(d.n)))
	s.k = 1
	for i := range s.minDist {
		s.minDist[i] = sqDist(d.row(i), s.centroid(0, d.dim))
		s.nearest[i] = 0
	}
	s.distances += uint64(d.n)
	for s.k < k {
		var total float64
		for i := range s.probs {
			s.probs[i] = d.weight(i) * s.minDist[i]
			total += s.probs[i]
		}
		if total == 0 {
			// All remaining points coincide with chosen centers: fewer
			// distinct points than k.
			break
		}
		c := s.k
		ctr := s.centroid(c, d.dim)
		copy(ctr, d.row(rng.Pick(s.probs)))
		s.k++
		for o := 0; o < c; o++ {
			s.gap[o] = sqDist(s.centroid(o, d.dim), ctr)
		}
		s.distances += uint64(c)
		cand := s.cand[:0]
		for i, md := range s.minDist {
			// Written as a negation so that NaN keeps the point.
			if !(s.gap[s.nearest[i]] > 4*md*(1+boundMargin)) {
				cand = append(cand, i)
			}
		}
		s.pruned += uint64(d.n - len(cand))
		s.distances += uint64(len(cand))
		// The candidates' distances to the new center, four at a time.
		j := 0
		for ; j+4 <= len(cand); j += 4 {
			i0, i1, i2, i3 := cand[j], cand[j+1], cand[j+2], cand[j+3]
			d0, d1, d2, d3 := sqDist4(ctr, d.row(i0), d.row(i1), d.row(i2), d.row(i3))
			s.seedCloser(i0, d0, c)
			s.seedCloser(i1, d1, c)
			s.seedCloser(i2, d2, c)
			s.seedCloser(i3, d3, c)
		}
		for ; j < len(cand); j++ {
			s.seedCloser(cand[j], sqDist(ctr, d.row(cand[j])), c)
		}
	}
}

// seedCloser makes center c point i's nearest if it is strictly closer.
func (s *scratch) seedCloser(i int, dist float64, c int) {
	if dist < s.minDist[i] {
		s.minDist[i], s.nearest[i] = dist, c
	}
}

// BIC returns the Bayesian Information Criterion score of a clustering, in
// the X-means formulation (Pelleg & Moore, ICML 2000), generalized to
// weighted points: a point of weight w contributes like w copies. Higher is
// better. Weights are rescaled so their total equals the point count, which
// keeps scores comparable across weighting schemes.
func BIC(points [][]float64, weights []float64, res *Result) float64 {
	n := len(points)
	if n == 0 || res == nil {
		return math.Inf(-1)
	}
	d := float64(len(points[0]))
	k := float64(res.K)

	// Effective (rescaled) weights.
	scale := 1.0
	if weights != nil {
		var total float64
		for _, w := range weights {
			total += w
		}
		scale = float64(n) / total
	}
	eff := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i] * scale
	}

	// Pooled spherical variance estimate.
	var distortion float64
	clusterW := make([]float64, res.K)
	for i, c := range res.Assignments {
		w := eff(i)
		distortion += w * vecmath.SquaredDistance(points[i], res.Centroids[c])
		clusterW[c] += w
	}
	R := float64(n)
	denom := d * (R - k)
	if denom <= 0 {
		denom = d // degenerate: as many clusters as points
	}
	sigma2 := distortion / denom
	if sigma2 <= 0 {
		sigma2 = 1e-12 // perfect fit; avoid log(0)
	}

	var loglik float64
	for _, Ri := range clusterW {
		if Ri <= 0 {
			continue
		}
		loglik += Ri*math.Log(Ri) - Ri*math.Log(R) -
			Ri*d/2*math.Log(2*math.Pi*sigma2) - (Ri-1)*d/2
	}
	params := (k - 1) + k*d + 1
	return loglik - params/2*math.Log(R)
}
