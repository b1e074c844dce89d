package outliers_test

import (
	"strconv"
	"testing"

	"coresetclustering/internal/coreset"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
	"coresetclustering/internal/streaming"
)

// streamingCoreset is the weighted coreset an insertion-only outliers stream
// holds after 5,120 power-family points under a budget of 160 (the shape of
// the outliers streams queried by the benchmark ledger): 102 points for this
// seed; such coresets hold roughly 95-150 points.
func streamingCoreset(b *testing.B) metric.WeightedSet {
	pts, err := dataset.Generate(dataset.Power, 5120, 11)
	if err != nil {
		b.Fatal(err)
	}
	d, err := streaming.NewDoublingIn(metric.EuclideanSpace, 160)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pts {
		if err := d.Process(p); err != nil {
			b.Fatal(err)
		}
	}
	return d.Coreset()
}

// mrUnion is the round-2 input of the 2-round MapReduce outliers algorithm
// on 50,000 higgs-family points plus 20 injected outliers with k = z = 20
// and 8 partitions: the union of eight 160-point coresets, 1,280 points.
func mrUnion(b *testing.B) metric.WeightedSet {
	higgs, err := dataset.Generate(dataset.Higgs, 50000, 11)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := dataset.InjectOutliers(higgs, 20, 11)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := mapreduce.UniformPartitioner{}.Partition(inj.Points, 8)
	if err != nil {
		b.Fatal(err)
	}
	coresets := make([]*coreset.Coreset, len(parts))
	for i, part := range parts {
		spec := coreset.Spec{Size: 4 * 40, RefCenters: 40, Space: metric.EuclideanSpace}
		if coresets[i], err = coreset.Build(metric.Euclidean, part, spec); err != nil {
			b.Fatal(err)
		}
	}
	return coreset.Union(coresets...)
}

// BenchmarkSolveCoreset times the full weighted radius search (SolveIn with
// the paper's binary + geometric strategy, epsHat = 0.25) on the two coreset
// shapes that answer outlier queries: a streaming /centers miss and the
// second MapReduce round. workers=1 is the sequential schedule; workers=0
// uses one worker per CPU.
func BenchmarkSolveCoreset(b *testing.B) {
	shapes := []struct {
		name  string
		build func(*testing.B) metric.WeightedSet
		k     int
		z     int64
	}{
		{"stream-k10-z10", streamingCoreset, 10, 10},
		{"mr-union-k20-z20", mrUnion, 20, 20},
	}
	for _, sh := range shapes {
		set := sh.build(b)
		for _, workers := range []int{1, 0} {
			b.Run(sh.name+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(len(set)), "points")
				for b.Loop() {
					if _, err := outliers.SolveIn(metric.EuclideanSpace, set, sh.k, sh.z, 0.25, outliers.SearchBinaryGeometric, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
