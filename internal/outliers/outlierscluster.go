// Package outliers implements the sequential machinery for the k-center
// problem with z outliers used by the paper:
//
//   - OutliersCluster (Algorithm 1): the weighted variant of the Charikar et
//     al. (2001) greedy, parameterised by a candidate radius r and a slack
//     parameter epsHat;
//   - the radius search that drives it (binary search over candidate radii
//     combined with a geometric grid of step 1+delta, delta =
//     epsHat/(3+4*epsHat));
//   - CharikarEtAl: the original unweighted 3-approximation baseline,
//     recovered as OutliersCluster with epsHat = 0 and unit weights, searched
//     over all pairwise distances (the Figure 8 baseline).
package outliers

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"coresetclustering/internal/metric"
)

// ErrEmptyInput is returned when the input set is empty.
var ErrEmptyInput = errors.New("outliers: empty input set")

// ErrInvalidParam is returned for non-positive k or negative z/epsHat.
var ErrInvalidParam = errors.New("outliers: invalid parameter")

// ClusterResult is the outcome of one OutliersCluster invocation at a fixed
// candidate radius.
type ClusterResult struct {
	// Centers are the selected centers (at most k of them).
	Centers metric.Dataset
	// CenterIndices are the indices of the centers within the input set.
	CenterIndices []int
	// Uncovered holds the indices (into the input set) of the points left
	// uncovered, i.e. at distance greater than (3+4*epsHat)*r from every
	// selected center.
	Uncovered []int
	// UncoveredWeight is the total weight of the uncovered points.
	UncoveredWeight int64
}

// Cluster runs OutliersCluster(T, k, r, epsHat) exactly as in Algorithm 1 of
// the paper. In each iteration it selects, among all points of T, the point x
// whose ball of radius (1+2*epsHat)*r contains the largest aggregate weight of
// still-uncovered points, then marks as covered every uncovered point within
// distance (3+4*epsHat)*r of x. It stops after k centers or when everything is
// covered.
func Cluster(dist metric.Distance, set metric.WeightedSet, k int, r, epsHat float64) (*ClusterResult, error) {
	if err := validateClusterParams(set, k, r, epsHat); err != nil {
		return nil, err
	}
	return clusterPairwise(metric.NewEngine(1), pairwiseFromSpace(metric.SpaceFor(dist), set), set, k, r, epsHat), nil
}

// validateClusterParams checks the shared preconditions of Cluster and Solve.
func validateClusterParams(set metric.WeightedSet, k int, r, epsHat float64) error {
	if len(set) == 0 {
		return ErrEmptyInput
	}
	if k <= 0 {
		return fmt.Errorf("%w: k = %d", ErrInvalidParam, k)
	}
	if r < 0 {
		return fmt.Errorf("%w: negative radius %v", ErrInvalidParam, r)
	}
	if epsHat < 0 {
		return fmt.Errorf("%w: negative epsHat %v", ErrInvalidParam, epsHat)
	}
	return nil
}

// pairwise gives row access to the pairwise distances of a set. The radius
// search evaluates OutliersCluster many times over the same set, so up to
// maxCachedMatrixSize points the full matrix is precomputed once and a row
// is a slice of it; above that size each row is recomputed on demand with
// the space's scalar distance. Values are always in the TRUE distance
// domain: the covering thresholds of Algorithm 1 are true radii, and keeping
// the matrix in the true domain means the conversion out of the space's
// surrogate is paid once per pair at build time, never during the search.
type pairwise struct {
	sp  metric.Space
	pts metric.Dataset
	// m is the row-major n*n matrix, nil when rows are computed on demand.
	m []float64
}

// pairwiseFromSpace evaluates the space's true distance on demand.
func pairwiseFromSpace(sp metric.Space, set metric.WeightedSet) pairwise {
	return pairwise{sp: sp, pts: set.Points()}
}

// row returns d(i, j) for every j. An on-demand row is written into buf
// (length n); a cached row aliases the matrix and must not be modified.
func (pd pairwise) row(i int, buf []float64) []float64 {
	n := len(pd.pts)
	if pd.m != nil {
		return pd.m[i*n : (i+1)*n]
	}
	for j, q := range pd.pts {
		buf[j] = pd.sp.Distance(pd.pts[i], q)
	}
	return buf
}

// col returns d(j, i) for every j. The cached matrix is symmetric by
// construction, so its column is row i; on demand the arguments keep the
// row-major order, so the values match row(j)[i] bit for bit even for a
// custom distance that is not.
func (pd pairwise) col(i int, buf []float64) []float64 {
	if pd.m != nil {
		return pd.row(i, nil)
	}
	for j, p := range pd.pts {
		buf[j] = pd.sp.Distance(p, pd.pts[i])
	}
	return buf
}

// buffer returns the scratch slice on-demand rows need (nil for a cached
// matrix).
func (pd pairwise) buffer() []float64 {
	if pd.m != nil {
		return nil
	}
	return make([]float64, len(pd.pts))
}

// maxCachedMatrixSize bounds the number of points for which Solve materialises
// the full pairwise-distance matrix (memory is 8*n^2 bytes; 4096 points is
// 128 MiB).
const maxCachedMatrixSize = 4096

// pairwiseMatrix precomputes the full distance matrix of the set. The worker
// owning row i runs one batched DistancesTo over the points after i, converts
// the row out of the surrogate domain in place, and writes both mirror
// cells, so every cell has exactly one writer (no race) and the number of
// distance evaluations, n*(n-1)/2, is the same for any worker count. To
// balance the triangular workload, the chunked index v covers the row pair
// (v, n-1-v): the two rows together always hold n-1 pairs.
func pairwiseMatrix(eng metric.Engine, sp metric.Space, set metric.WeightedSet) pairwise {
	n := len(set)
	pts := set.Points()
	m := make([]float64, n*n)
	fillRow := func(i int) {
		row := m[i*n+i+1 : (i+1)*n]
		sp.DistancesTo(row, pts[i], pts[i+1:])
		for j, s := range row {
			d := sp.FromSurrogate(s)
			row[j] = d
			m[(i+1+j)*n+i] = d
		}
	}
	if eng.Sequential(n * (n - 1) / 2) {
		for i := 0; i < n; i++ {
			fillRow(i)
		}
	} else {
		eng.ForEachChunkCost((n+1)/2, n, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				fillRow(v)
				if mirror := n - 1 - v; mirror != v {
					fillRow(mirror)
				}
			}
		})
	}
	return pairwise{sp: sp, pts: pts, m: m}
}

// clusterPairwise is the core of Algorithm 1 over the rows of pd, in O(n^2)
// per call whatever k is. weight[t] holds the uncovered weight inside t's
// (1+2eps)r-ball: it is filled once, then every point that becomes covered
// subtracts its weight from the balls that hold it, so each center is an
// O(n) argmax instead of a rescan of every ball. The int64 sums are exact,
// so weight[t] always equals a fresh rescan, and the strict argmax breaks
// ties to the lowest index. Only the initial fill is chunked across the
// engine's workers (each worker owns whole rows), so the result is
// bit-identical for any worker count.
func clusterPairwise(eng metric.Engine, pd pairwise, set metric.WeightedSet, k int, r, epsHat float64) *ClusterResult {
	n := len(set)
	ballRadius := (1 + 2*epsHat) * r
	coverRadius := (3 + 4*epsHat) * r
	// The weights, packed for the O(n^2) loops below.
	w := make([]int64, n)
	for i, p := range set {
		w[i] = p.W
	}

	weight := make([]int64, n)
	fill := func(lo, hi int) {
		buf := pd.buffer()
		for t := lo; t < hi; t++ {
			var sum int64
			for v, d := range pd.row(t, buf) {
				if d <= ballRadius {
					sum += w[v]
				}
			}
			weight[t] = sum
		}
	}
	if eng.Sequential(n * n) {
		fill(0, n)
	} else {
		eng.ForEachChunkCost(n, n, func(_, lo, hi int) { fill(lo, hi) })
	}

	uncovered := make([]bool, n)
	for i := range uncovered {
		uncovered[i] = true
	}
	uncoveredCount := n
	rowBuf, colBuf := pd.buffer(), pd.buffer()
	res := &ClusterResult{}
	for len(res.CenterIndices) < k && uncoveredCount > 0 {
		// Pick the point (covered or not) whose (1+2eps)r-ball has maximum
		// aggregate uncovered weight.
		bestIdx, bestWeight := -1, int64(-1)
		for t, wt := range weight {
			if wt > bestWeight {
				bestWeight = wt
				bestIdx = t
			}
		}
		if bestIdx < 0 {
			break
		}
		res.CenterIndices = append(res.CenterIndices, bestIdx)
		res.Centers = append(res.Centers, set[bestIdx].P)
		// Remove from the uncovered set everything within (3+4eps)r of the
		// new center; the ball weights are only needed for another center.
		update := len(res.CenterIndices) < k
		for v, d := range pd.row(bestIdx, rowBuf) {
			if uncovered[v] && d <= coverRadius {
				uncovered[v] = false
				uncoveredCount--
				if update {
					for t, dt := range pd.col(v, colBuf) {
						if dt <= ballRadius {
							weight[t] -= w[v]
						}
					}
				}
			}
		}
	}
	for i, u := range uncovered {
		if u {
			res.Uncovered = append(res.Uncovered, i)
			res.UncoveredWeight += w[i]
		}
	}
	return res
}

// Delta returns the multiplicative radius-search tolerance used by the paper,
// delta = epsHat / (3 + 4*epsHat). For epsHat = 0 it returns 0 (exact search).
func Delta(epsHat float64) float64 {
	if epsHat <= 0 {
		return 0
	}
	return epsHat / (3 + 4*epsHat)
}

// SolveResult is the outcome of a full radius search plus final clustering.
type SolveResult struct {
	// Centers are the final (at most k) centers.
	Centers metric.Dataset
	// CenterIndices are the indices of the centers within the input set.
	CenterIndices []int
	// Radius is the candidate radius the search settled on (r~min in the
	// paper's notation).
	Radius float64
	// UncoveredWeight is the aggregate weight left uncovered at that radius;
	// it is at most z by construction.
	UncoveredWeight int64
	// Evaluations is the number of OutliersCluster invocations performed by
	// the search; reported for the radius-search ablation.
	Evaluations int
}

// SearchStrategy selects how the radius search enumerates candidate radii.
type SearchStrategy int

const (
	// SearchBinaryGeometric is the paper's strategy: a binary search over the
	// sorted pairwise distances of the input, refined by a geometric search of
	// step (1+delta) between the last infeasible and first feasible distance.
	SearchBinaryGeometric SearchStrategy = iota
	// SearchExhaustive evaluates every candidate pairwise distance in
	// increasing order and stops at the first feasible one. It is exact but
	// needs O(|T|^2) clusterings in the worst case; used by the
	// CharikarEtAl-style baseline and by the radius-search ablation.
	SearchExhaustive
)

// Solve finds (an estimate of) the minimum radius r such that
// OutliersCluster(set, k, r, epsHat) leaves uncovered weight at most z, and
// returns the clustering computed at that radius. The search follows the
// given strategy; SearchBinaryGeometric reproduces the paper's second-round
// procedure.
// Unlike the gmm package (whose wrappers default to the auto-parallel
// engine), Solve pins workers to 1: it backs the CharikarEtAl sequential
// baselines, whose reported running times must reflect a truly sequential
// schedule. Parallel callers use SolveWithWorkers explicitly.
func Solve(dist metric.Distance, set metric.WeightedSet, k int, z int64, epsHat float64, strategy SearchStrategy) (*SolveResult, error) {
	return SolveWithWorkers(dist, set, k, z, epsHat, strategy, 1)
}

// SolveWithWorkers is Solve with the distance engine's parallelism degree
// made explicit. The scalar distance function is upgraded to its native
// Space when it is a built-in (batched matrix build, surrogate-domain row
// kernels), or wrapped in the identity-surrogate adapter otherwise.
func SolveWithWorkers(dist metric.Distance, set metric.WeightedSet, k int, z int64, epsHat float64, strategy SearchStrategy, workers int) (*SolveResult, error) {
	return SolveIn(metric.SpaceFor(dist), set, k, z, epsHat, strategy, workers)
}

// SolveIn is the Space form of Solve: the pairwise-matrix build and the
// ball-weight fill of every OutliersCluster evaluation are chunked across
// workers goroutines (<= 0 selects one per CPU, 1 — the Solve default —
// keeps the fully sequential path). The result is bit-identical for any
// worker count.
func SolveIn(sp metric.Space, set metric.WeightedSet, k int, z int64, epsHat float64, strategy SearchStrategy, workers int) (*SolveResult, error) {
	if err := validateClusterParams(set, k, 0, epsHat); err != nil {
		return nil, err
	}
	if z < 0 {
		return nil, fmt.Errorf("%w: z = %d", ErrInvalidParam, z)
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	eng := metric.NewEngine(workers)

	// The search evaluates OutliersCluster many times on the same set, so for
	// moderate sizes precompute the pairwise distance matrix once.
	pd := pairwiseFromSpace(sp, set)
	if len(set) <= maxCachedMatrixSize {
		pd = pairwiseMatrix(eng, sp, set)
	}

	evals := 0
	feasible := func(r float64) (*ClusterResult, bool) {
		res := clusterPairwise(eng, pd, set, k, r, epsHat)
		evals++
		return res, res.UncoveredWeight <= z
	}
	result := func(res *ClusterResult, r float64) *SolveResult {
		return &SolveResult{
			Centers:         res.Centers,
			CenterIndices:   res.CenterIndices,
			Radius:          r,
			UncoveredWeight: res.UncoveredWeight,
			Evaluations:     evals,
		}
	}

	// Degenerate cases: k >= |T| means radius 0 covers everything (every
	// point can be its own center), and likewise if the total weight beyond
	// the k heaviest points is at most z.
	zero, ok := feasible(0)
	if ok {
		return result(zero, 0), nil
	}

	candidates := candidateRadii(pd)
	if len(candidates) == 0 {
		// All points coincide: radius 0 was already feasible above unless the
		// weight budget is impossible, in which case we just report the
		// radius-0 clustering computed above.
		return result(zero, 0), nil
	}

	var chosen float64
	var chosenRes *ClusterResult

	switch strategy {
	case SearchExhaustive:
		for _, r := range candidates {
			if res, ok := feasible(r); ok {
				chosen, chosenRes = r, res
				break
			}
		}
	default: // SearchBinaryGeometric
		// Binary search over the sorted candidate distances for the smallest
		// feasible one. The greedy is not strictly monotone in r, but as in
		// the paper the search treats it as such; the final result is always
		// validated by an explicit clustering at the chosen radius.
		lo, hi := 0, len(candidates)-1
		firstFeasible := -1
		for lo <= hi {
			mid := (lo + hi) / 2
			if _, ok := feasible(candidates[mid]); ok {
				firstFeasible = mid
				hi = mid - 1
			} else {
				lo = mid + 1
			}
		}
		if firstFeasible < 0 {
			firstFeasible = len(candidates) - 1
		}
		rHi := candidates[firstFeasible]
		rLo := 0.0
		if firstFeasible > 0 {
			rLo = candidates[firstFeasible-1]
		}
		chosen = rHi
		// Geometric refinement with step (1+delta) between rLo and rHi: walk
		// up from rLo multiplying by (1+delta) and keep the first feasible
		// value. This reproduces the (1+delta) multiplicative tolerance of
		// the paper without materialising every distance.
		if delta := Delta(epsHat); delta > 0 && rLo > 0 && rHi > rLo*(1+delta) {
			for r := rLo * (1 + delta); r < rHi; r *= 1 + delta {
				if _, ok := feasible(r); ok {
					chosen = r
					break
				}
			}
		}
		res, ok := feasible(chosen)
		if !ok {
			// Extremely defensive: fall back to the largest candidate, which
			// always covers everything (every point is within the diameter of
			// any center).
			chosen = candidates[len(candidates)-1]
			res, _ = feasible(chosen)
		}
		chosenRes = res
	}

	if chosenRes == nil {
		// No candidate was feasible (can only happen if z is smaller than the
		// weight that k centers can ever leave uncovered at the diameter,
		// which cannot occur: at the maximum pairwise distance a single
		// center covers everything). Guard anyway.
		chosen = candidates[len(candidates)-1]
		chosenRes = clusterPairwise(eng, pd, set, k, chosen, epsHat)
	}

	return result(chosenRes, chosen), nil
}

// candidateRadii returns the sorted distinct positive pairwise distances of
// the points. These are the candidate radii of the search: the behaviour of
// OutliersCluster changes only when r crosses a value at which some pairwise
// distance enters or leaves one of the two balls, and searching the pairwise
// distances themselves is the protocol of the original Charikar et al.
// algorithm that the paper builds on. A cached matrix is read through its
// upper triangle; without one the pairs are computed with the space's
// batched kernel, as the matrix build does. The values are true distances.
func candidateRadii(pd pairwise) []float64 {
	n := len(pd.pts)
	if n < 2 {
		return nil
	}
	var ds []float64
	if pd.m == nil {
		ds = metric.PairwiseDistancesIn(pd.sp, pd.pts)
	} else {
		ds = make([]float64, 0, n*(n-1)/2)
		for i := 0; i < n-1; i++ {
			ds = append(ds, pd.m[i*n+i+1:(i+1)*n]...)
		}
	}
	sort.Float64s(ds)
	out := ds[:0]
	prev := math.Inf(-1)
	for _, d := range ds {
		if d > 0 && d != prev {
			out = append(out, d)
			prev = d
		}
	}
	return out
}

// CharikarEtAl runs the original sequential 3-approximation algorithm for the
// k-center problem with z outliers on an unweighted point set: unit weights,
// epsHat = 0, and an exhaustive search over all pairwise distances (smallest
// feasible first). This is the CHARIKARETAL baseline of Figure 8; its running
// time is O(|S|^2 log|S|) per search (O(|S|^2) per probed radius) and it is
// only meant for datasets of at most a few tens of thousands of points.
func CharikarEtAl(dist metric.Distance, points metric.Dataset, k, z int) (*SolveResult, error) {
	if z < 0 {
		return nil, fmt.Errorf("%w: z = %d", ErrInvalidParam, z)
	}
	set := metric.Unweighted(points)
	return Solve(dist, set, k, int64(z), 0, SearchBinaryGeometric)
}

// CharikarEtAlExhaustive is CharikarEtAl with the exhaustive (linear-scan)
// radius search. It is the most faithful rendition of the original algorithm
// and the slowest; the radius-search ablation benchmark compares the two.
func CharikarEtAlExhaustive(dist metric.Distance, points metric.Dataset, k, z int) (*SolveResult, error) {
	if z < 0 {
		return nil, fmt.Errorf("%w: z = %d", ErrInvalidParam, z)
	}
	set := metric.Unweighted(points)
	return Solve(dist, set, k, int64(z), 0, SearchExhaustive)
}
