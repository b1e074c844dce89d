package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/metric"
)

// The mr-batch workload: the 2-round MapReduce solves, in-process.
const (
	mrWikiN   = 100000 // wiki family, d=50
	mrWikiK   = 60     // default ell = sqrt(n/k) = 40 partitions, union 9,600
	mrHiggsN  = 50000  // higgs family, d=7, plus mrZ injected outliers
	mrOutK    = 20
	mrZ       = 20
	mrOutEll  = 8   // pinned: round 2 is superlinear in the union (8 x 160 = 1,280)
	ratioEps  = 0.5 // slack of the 2+eps and 3+eps output checks
	minSolves = 2   // solves of each kind per run, even past --seconds
)

type mrInputs struct {
	wiki     metric.Dataset
	higgs    metric.Dataset // before injection
	injected metric.Dataset // higgs plus mrZ outliers
}

func (mrInputs) stop() {}

func setupMR(seed int64) (mrInputs, error) {
	wiki, err := dataset.Generate(dataset.Wiki, mrWikiN, seed)
	if err != nil {
		return mrInputs{}, err
	}
	higgs, err := dataset.Generate(dataset.Higgs, mrHiggsN, seed)
	if err != nil {
		return mrInputs{}, err
	}
	inj, err := dataset.InjectOutliers(higgs, mrZ, seed)
	if err != nil {
		return mrInputs{}, err
	}
	return mrInputs{wiki: wiki, higgs: higgs, injected: inj.Points}, nil
}

// mrSolves is what the alternating loop measured.
type mrSolves struct {
	kc, out  []time.Duration
	kcCPU    []time.Duration // process CPU time of each Cluster call
	kcRes    *kcenter.Clustering
	outRes   *kcenter.OutliersClustering
	kcRadii  []float64
	outRadii []float64
}

// solveLoop alternates the two solves until d has passed (at least
// minSolves of each), recording spans when tr is non-nil.
func solveLoop(in mrInputs, d time.Duration, tr *tracer, parent int) (*mrSolves, error) {
	s := &mrSolves{}
	start := time.Now()
	for len(s.kc) < minSolves || time.Since(start) < d {
		t0, c0 := time.Now(), processCPU()
		id := tr.begin("kcenter.Cluster", parent)
		kc, err := kcenter.Cluster(in.wiki, mrWikiK)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s.kc = append(s.kc, time.Since(t0))
		s.kcCPU = append(s.kcCPU, processCPU()-c0)
		s.kcRes = kc
		s.kcRadii = append(s.kcRadii, kc.Radius)

		t0 = time.Now()
		id = tr.begin("kcenter.ClusterWithOutliers", parent)
		out, err := kcenter.ClusterWithOutliers(in.injected, mrOutK, mrZ, kcenter.WithPartitions(mrOutEll))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s.out = append(s.out, time.Since(t0))
		s.outRes = out
		s.outRadii = append(s.outRadii, out.Radius)
	}
	return s, nil
}

func runMRBatch(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	in, setupS, err := repeatSetup(e.setups, func() (mrInputs, error) { return setupMR(e.seed) })
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	runtime.GC() // drop the earlier set-ups' inputs so peak RSS reflects the solves
	say("mr-batch: op = one Cluster (wiki n=%d d=50 k=%d; op_cpu_ms is its process CPU time), side = one ClusterWithOutliers (higgs n=%d+%d k=%d z=%d ell=%d), rate = points clustered per second of solving",
		mrWikiN, mrWikiK, mrHiggsN, mrZ, mrOutK, mrZ, mrOutEll)

	root := tr.begin("workload.mr-batch", 0)
	s, err := solveLoop(in, e.seconds, tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	checkMR(e, o, in, s)

	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	op, side := summarize(s.kc), summarize(s.out)
	var total time.Duration
	for _, d := range append(append([]time.Duration(nil), s.kc...), s.out...) {
		total += d
	}
	o.e2e["rss_mb"] = rss
	o.e2e["op_p50_ms"] = ms(op.P50)
	o.e2e["op_p99_ms"] = ms(op.Tail)
	o.e2e["op_cpu_ms"] = ms(medianDuration(s.kcCPU))
	o.e2e["side_p50_ms"] = ms(side.P50)
	o.e2e["side_p99_ms"] = ms(side.Tail)
	o.e2e["rate_per_s"] = float64(len(s.kc)*len(in.wiki)+len(s.out)*len(in.injected)) / total.Seconds()
	say("  Cluster x%d p50=%.1fms  ClusterWithOutliers x%d p50=%.1fms (tails with fewer than %d samples are the slowest sample)",
		op.N, ms(op.P50), side.N, ms(side.P50), minBeyond+1)
	return o, nil
}

// checkMR runs the output checks: approximation ratios against the
// sequential Gonzalez baseline, identical radii across repetitions, and an
// identical radius on the sequential engine path.
func checkMR(e *env, o *outcome, in mrInputs, s *mrSolves) {
	for _, r := range s.kcRadii {
		o.check(r == s.kcRadii[0], "Cluster radius changed across repetitions: %v vs %v", r, s.kcRadii[0])
	}
	for _, r := range s.outRadii {
		o.check(r == s.outRadii[0], "ClusterWithOutliers radius changed across repetitions: %v vs %v", r, s.outRadii[0])
	}
	seq, err := kcenter.Cluster(in.wiki, mrWikiK, kcenter.WithWorkers(1))
	o.check(err == nil && seq.Radius == s.kcRes.Radius, "WithWorkers(1) radius %v differs from default %v (%v)", radiusOf(seq), s.kcRes.Radius, err)
	kcRatio, outRatio, err := mrRatios(in, s)
	if err != nil {
		o.fail("Gonzalez baseline: %v", err)
		return
	}
	o.check(kcRatio <= 2+ratioEps, "mr_kcenter_ratio %v above 2+%v", kcRatio, ratioEps)
	o.check(outRatio <= 3+ratioEps, "mr_outliers_ratio %v above 3+%v", outRatio, ratioEps)
	o.layers["core.kcenter_ratio"] = kcRatio
	o.layers["core.outliers_ratio"] = outRatio
	say("  mr_kcenter_ratio=%.6f (<= %.1f)  mr_outliers_ratio=%.6f (<= %.1f)", kcRatio, 2+ratioEps, outRatio, 3+ratioEps)
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func radiusOf(c *kcenter.Clustering) float64 {
	if c == nil {
		return 0
	}
	return c.Radius
}

// mrRatios compares the MR radii with sequential Gonzalez: the k-center
// radius on the same input, and for outliers the k-radius of the data
// before injection (an upper bound on the optimum with z outliers).
func mrRatios(in mrInputs, s *mrSolves) (float64, float64, error) {
	g, err := kcenter.Gonzalez(in.wiki, mrWikiK)
	if err != nil {
		return 0, 0, err
	}
	gh, err := kcenter.Gonzalez(in.higgs, mrOutK)
	if err != nil {
		return 0, 0, err
	}
	if g.Radius == 0 || gh.Radius == 0 {
		return 0, 0, fmt.Errorf("zero Gonzalez radius")
	}
	return s.kcRes.Radius / g.Radius, s.outRes.Radius / gh.Radius, nil
}
