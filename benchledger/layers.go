package main

import (
	"context"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/coreset"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// layerUnits lists the per-layer metrics every traced run reports, with
// their units; BENCHMARK.json declares the same names. The comment after
// each group names the end-to-end metric (workload) it should move.
var layerUnits = map[string]string{
	// -> op_p50_ms / side_p50_ms (mr-batch)
	"metric.kcenter_dist_evals":  "count",
	"metric.outliers_dist_evals": "count",
	"metric.ns_per_eval":         "ns",
	"metric.assign_s":            "s",
	"metric.parallel_speedup":    "x",
	"core.kcenter_round1_s":      "s",
	"core.kcenter_round2_s":      "s",
	"core.outliers_round1_s":     "s",
	"core.outliers_round2_s":     "s",
	"core.kcenter_union_points":  "count",
	"core.outliers_union_points": "count",
	"core.kcenter_ratio":         "x",
	"core.outliers_ratio":        "x",
	"coreset.build_ms":           "ms",
	"gmm.union_run_ms":           "ms",
	"outliers.solve_s":           "s",
	"outliers.evaluations":       "count",
	"window.outliers_extract_ms": "ms",
	// -> op_p50_ms, side_p50_ms, rate_per_s (ingest)
	"httpapi.decode_binary_us":   "us",
	"httpapi.server_us":          "us",
	"httpapi.transport_us":       "us",
	"engine.ingest_us":           "us",
	"engine.residual_us":         "us",
	"engine.publishes_per_batch": "count",
	"persist.append_us":          "us",
	"persist.fsyncs_per_append":  "count",
	"persist.compact_ms":         "ms",
	"streaming.observe_ns":       "ns",
	"streaming.clone_us":         "us",
	"streaming.working_memory":   "count",
	// -> op_p50_ms, op_p99_ms, side_p99_ms (query)
	"httpapi.centers_server_us":       "us",
	"engine.centers_hit_us":           "us",
	"engine.centers_miss_ms.kcenter":  "ms",
	"engine.centers_miss_ms.outliers": "ms",
	"engine.centers_miss_ms.window":   "ms",
	"engine.cache_hit_ratio":          "x",
	"window.observe_ns":               "ns",
	"window.clone_us":                 "us",
	"window.live_buckets":             "count",
	"sketch.snapshot_us":              "us",
	// -> op_p50_ms, op_p99_ms, side_p50_ms (cluster)
	"sketch.merge_ms":                "ms",
	"router.fanout_us":               "us",
	"router.server_us":               "us",
	"router.shard_sends_per_batch":   "count",
	"router.shard_retries_per_batch": "count",
	"router.shard_send_us":           "us",
	// Wall-clock figures of the named workload's untraced pass.
	"latency.op_p50_ms":   "ms",
	"latency.op_p99_ms":   "ms",
	"latency.side_p50_ms": "ms",
	"latency.side_p99_ms": "ms",
	"latency.rate_per_s":  "1/s",
	// The ledger itself.
	"gen.late_p99_ms.ingest":         "ms",
	"gen.late_p99_ms.query":          "ms",
	"gen.late_p99_ms.cluster":        "ms",
	"ledger.unloaded_p50_us.ingest":  "us",
	"ledger.unloaded_p50_us.query":   "us",
	"ledger.unloaded_p50_us.cluster": "us",
	"ledger.gap_pct.ingest":          "%",
	"ledger.gap_pct.query":           "%",
	"ledger.gap_pct.cluster":         "%",
	"trace.overhead_pct":             "%",
}

// workloadParams is recorded with every result.
var workloadParams = map[string]any{
	"mr-batch": map[string]any{"cluster": map[string]any{"family": "wiki", "n": mrWikiN, "d": 50, "k": mrWikiK, "ell": "default (40)"},
		"outliers": map[string]any{"family": "higgs", "n": mrHiggsN, "injected": mrZ, "k": mrOutK, "z": mrZ, "ell": mrOutEll}},
	"ingest": map[string]any{"streams": ingestStreams, "k": 10, "batch": ingestBatch, "rate": ingestRate, "fsync": "interval",
		"family": "higgs", "unloaded": ingestUnloaded, "connections": "nproc"},
	"query": map[string]any{"streams": queryStreams, "reads_per_s": queryReadRate,
		"json_batches_per_s": queryWriteRate, "json_batch": queryJSONBatch, "snapshots_per_s": querySnapRate, "family": "power"},
	"cluster": map[string]any{"shards": 2, "streams": clusterStreams, "rate": clusterRate, "refresh_reads_per_s": clusterReadRate,
		"batch": ingestBatch, "family": "higgs"},
}

// runLedger is the traced run. Every traced run reports every per-layer
// metric of BENCHMARK.json, so it measures all four workloads: the named one twice
// (untraced, then traced, for trace.overhead_pct) and the others once,
// traced and short; then it times each layer's public functions in-process
// and reconciles the layer costs with the unloaded end-to-end latencies.
func runLedger(e *env, named *workload) (*outcome, error) {
	tr := newTracer()
	o := newOutcome()
	short := *e
	short.setups = 1
	short.seconds = max(e.seconds/3, 2*time.Second)

	half := short
	half.seconds = max(e.seconds/2, 2*time.Second)
	plain, err := named.run(&half, nil)
	if err != nil {
		return nil, err
	}
	o.merge(plain)
	for _, m := range latencies {
		o.layers["latency."+m.name] = plain.e2e[m.name]
	}
	for _, w := range workloads {
		cfg := &short
		if w.name == named.name {
			cfg = &half
		}
		say("[traced %s]", w.name)
		res, err := w.run(cfg, tr)
		if err != nil {
			return nil, err
		}
		o.merge(res)
		if w.name == named.name {
			o.layers["trace.overhead_pct"] = 100 * (res.e2e["op_p50_ms"] - plain.e2e["op_p50_ms"]) / plain.e2e["op_p50_ms"]
		}
	}
	say("[in-process layers]")
	if err := mrLayers(e, o, tr); err != nil {
		return nil, err
	}
	if err := streamLayers(e, o, tr); err != nil {
		return nil, err
	}
	reconcile(e, o)
	o.spans = tr.snapshot()
	printSelfTimes(e, o.spans)
	return o, nil
}

// merge folds another pass's counts and layer values into o.
func (o *outcome) merge(x *outcome) {
	o.attempted += x.attempted
	o.failed += x.failed
	for k, v := range x.layers {
		o.layers[k] = v
	}
}

// mrLayers times the library layers under mr-batch's inputs.
func mrLayers(e *env, o *outcome, tr *tracer) error {
	in, err := setupMR(e.seed)
	if err != nil {
		return err
	}
	root := tr.begin("layers.mr", 0)
	defer tr.end(root)
	eu := metric.EuclideanSpace

	cs := metric.NewCountingSpace(eu)
	var kc *kcenter.Clustering
	t0 := time.Now()
	tr.do("kcenter.Cluster.counting", root, func() { kc, err = kcenter.Cluster(in.wiki, mrWikiK, kcenter.WithSpace(cs)) })
	defaultTime := time.Since(t0)
	if err != nil {
		return err
	}
	o.layers["metric.kcenter_dist_evals"] = float64(cs.Evaluations())
	o.layers["core.kcenter_round1_s"] = kc.Stats.CoresetTime.Seconds()
	o.layers["core.kcenter_round2_s"] = kc.Stats.FinalTime.Seconds()
	o.layers["core.kcenter_union_points"] = float64(kc.Stats.CoresetUnionSize)

	co := metric.NewCountingSpace(eu)
	var oc *kcenter.OutliersClustering
	tr.do("kcenter.ClusterWithOutliers.counting", root, func() {
		oc, err = kcenter.ClusterWithOutliers(in.injected, mrOutK, mrZ, kcenter.WithPartitions(mrOutEll), kcenter.WithSpace(co))
	})
	if err != nil {
		return err
	}
	o.layers["metric.outliers_dist_evals"] = float64(co.Evaluations())
	o.layers["core.outliers_round1_s"] = oc.Stats.CoresetTime.Seconds()
	o.layers["core.outliers_round2_s"] = oc.Stats.FinalTime.Seconds()
	o.layers["core.outliers_union_points"] = float64(oc.Stats.CoresetUnionSize)

	eng := metric.NewEngine(0)
	tr.do("metric.Engine.NearestBatch", root, func() { eng.NearestBatch(eu, in.wiki, kc.Centers) })
	tr.do("metric.Engine.Assign", root, func() { eng.Assign(eu, in.wiki, kc.Centers) })
	t0 = time.Now()
	tr.do("kcenter.Cluster.workers1", root, func() { _, err = kcenter.Cluster(in.wiki, mrWikiK, kcenter.WithWorkers(1)) })
	if err != nil {
		return err
	}
	seqTime := time.Since(t0)

	// Round 1 and 2 of Cluster, rebuilt from the layers' own functions with
	// the parameters kcenter.Cluster derives (ell = 40, size 4k).
	parts, err := mapreduce.UniformPartitioner{}.Partition(in.wiki, 40)
	if err != nil {
		return err
	}
	var sets []*coreset.Coreset
	for _, p := range parts {
		var c *coreset.Coreset
		tr.do("coreset.Build", root, func() {
			c, err = coreset.Build(nil, p, coreset.Spec{Size: 4 * mrWikiK, RefCenters: mrWikiK, Workers: 1, Space: eu})
		})
		if err != nil {
			return err
		}
		sets = append(sets, c)
	}
	tr.do("gmm.Runner.Run", root, func() { _, err = gmm.Runner{Space: eu}.Run(coreset.UnionPoints(sets...), mrWikiK, 0) })
	if err != nil {
		return err
	}

	// Round 2 of ClusterWithOutliers: the radius search on the union.
	parts, err = mapreduce.UniformPartitioner{}.Partition(in.injected, mrOutEll)
	if err != nil {
		return err
	}
	sets = sets[:0]
	for _, p := range parts {
		c, err := coreset.Build(nil, p, coreset.Spec{Size: 4 * (mrOutK + mrZ), RefCenters: mrOutK + mrZ, Space: eu})
		if err != nil {
			return err
		}
		sets = append(sets, c)
	}
	var solved *outliers.SolveResult
	tr.do("outliers.SolveIn", root, func() {
		solved, err = outliers.SolveIn(eu, coreset.Union(sets...), mrOutK, mrZ, 0.25, outliers.SearchBinaryGeometric, 0)
	})
	if err != nil {
		return err
	}

	// The window solver on a 2,000-point count window (query's outliers
	// parameters). It stays out of the query workload: one miss there takes
	// about a second and would stall one of the two connections.
	pw, err := dataset.Generate(dataset.Power, 2500, e.seed)
	if err != nil {
		return err
	}
	wo, err := kcenter.NewWindowedOutliers(10, 10, 160, kcenter.WithWindowSize(2000))
	if err != nil {
		return err
	}
	if err := wo.ObserveAll(pw); err != nil {
		return err
	}
	tr.do("WindowedOutliers.Centers", root, func() { _, err = wo.Centers() })
	if err != nil {
		return err
	}

	spans := tr.snapshot()
	o.layers["metric.ns_per_eval"] = float64(meanDuration(spans, "metric.Engine.NearestBatch")) / float64(len(in.wiki)*len(kc.Centers))
	o.layers["metric.assign_s"] = meanDuration(spans, "metric.Engine.Assign").Seconds()
	o.layers["metric.parallel_speedup"] = seqTime.Seconds() / defaultTime.Seconds()
	o.layers["coreset.build_ms"] = ms(meanDuration(spans, "coreset.Build"))
	o.layers["gmm.union_run_ms"] = ms(meanDuration(spans, "gmm.Runner.Run"))
	o.layers["outliers.solve_s"] = meanDuration(spans, "outliers.SolveIn").Seconds()
	o.layers["outliers.evaluations"] = float64(solved.Evaluations)
	o.layers["window.outliers_extract_ms"] = ms(meanDuration(spans, "WindowedOutliers.Centers"))
	return nil
}

// streamLayers times the daemon's layers in-process: frame decode, WAL
// append, the doubling and window updates, publish clones, engine ingest
// and extraction, and sketch encoding.
func streamLayers(e *env, o *outcome, tr *tracer) error {
	const n = 512
	batches, frames, err := higgsFrames(n, e.seed+1)
	if err != nil {
		return err
	}
	root := tr.begin("layers.stream", 0)
	defer tr.end(root)
	ctx := context.Background()

	for _, f := range frames {
		tr.do("httpapi.DecodeBinaryIngest", root, func() { _, _, _, err = httpapi.DecodeBinaryIngest(f) })
		if err != nil {
			return err
		}
	}

	opts := persist.Options{Fsync: persist.FsyncInterval, CompactEvery: 1024, GroupCommit: true}
	store, err := persist.Open(filepath.Join(e.work, "layers-wal"), opts)
	if err != nil {
		return err
	}
	defer store.Close()
	lg, err := store.Create("p", persist.Meta{K: 10, Budget: 80, Space: "euclidean"})
	if err != nil {
		return err
	}
	for _, b := range batches {
		tr.do("persist.Log.Append", root, func() {
			var p *persist.Pending
			if p, err = lg.BeginBatch(b, nil); err == nil {
				err = p.Wait()
			}
		})
		if err != nil {
			return err
		}
	}

	sk, err := kcenter.NewStreamingKCenter(10, 80)
	if err != nil {
		return err
	}
	for _, b := range batches {
		tr.do("StreamingKCenter.ObserveAll", root, func() { err = sk.ObserveAll(b) })
		if err != nil {
			return err
		}
		tr.do("StreamingKCenter.Clone", root, func() { sk.Clone() })
	}
	o.layers["streaming.working_memory"] = float64(sk.WorkingMemory())

	estore, err := persist.Open(filepath.Join(e.work, "layers-engine-wal"), opts)
	if err != nil {
		return err
	}
	defer estore.Close()
	eng := engine.New(engine.Config{K: 10, Fsync: persist.FsyncInterval.String()})
	eng.Store = estore
	plain := engine.CreateParams{K: 10, Budget: 80}
	for i, b := range batches {
		tr.do("engine.Engine.Ingest", root, func() { _, err = eng.Ingest(ctx, "e", b, nil, len(frames[i]), plain) })
		if err != nil {
			return err
		}
	}
	if _, _, err := eng.Centers(ctx, "e"); err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		tr.do("engine.Engine.Centers.hit", root, func() { _, _, err = eng.Centers(ctx, "e") })
		if err != nil {
			return err
		}
	}

	// Cache misses on the three stream kinds of the query workload.
	pw, err := dataset.Generate(dataset.Power, queryPrefill+64*8, e.seed+2)
	if err != nil {
		return err
	}
	mem := engine.New(engine.Config{K: 10})
	kinds := []struct {
		name string
		p    engine.CreateParams
	}{
		{"kcenter", plain},
		{"outliers", engine.CreateParams{K: 10, Z: 10, Budget: 160}},
		{"window", engine.CreateParams{K: 10, Budget: 80, WinSize: queryWindowSize}},
	}
	for _, k := range kinds {
		for lo := 0; lo+64 <= queryPrefill; lo += 64 {
			if _, err := mem.Ingest(ctx, k.name, pw[lo:lo+64], nil, -1, k.p); err != nil {
				return err
			}
		}
		for i := 0; i < 8; i++ {
			lo := queryPrefill + 64*i
			if _, err := mem.Ingest(ctx, k.name, pw[lo:lo+64], nil, -1, k.p); err != nil {
				return err
			}
			tr.do("engine.Engine.Centers.miss."+k.name, root, func() { _, _, err = mem.Centers(ctx, k.name) })
			if err != nil {
				return err
			}
		}
	}

	wk, err := kcenter.NewWindowedKCenter(10, 80, kcenter.WithWindowSize(queryWindowSize))
	if err != nil {
		return err
	}
	for lo := 0; lo+64 <= len(pw); lo += 64 {
		b := pw[lo : lo+64]
		tr.do("WindowedKCenter.ObserveAll", root, func() { err = wk.ObserveAll(b) })
		if err != nil {
			return err
		}
		tr.do("WindowedKCenter.Clone", root, func() { wk.Clone() })
	}
	o.layers["window.live_buckets"] = float64(wk.LiveBuckets())

	so, err := kcenter.NewStreamingOutliers(10, 10, 160)
	if err != nil {
		return err
	}
	if err := so.ObserveAll(pw[:queryPrefill]); err != nil {
		return err
	}
	snaps := []func() ([]byte, error){sk.Snapshot, so.Snapshot, wk.Snapshot}
	for i := 0; i < 60; i++ {
		tr.do("sketch.Snapshot", root, func() { _, err = snaps[i%len(snaps)]() })
		if err != nil {
			return err
		}
	}

	spans := tr.snapshot()
	o.layers["httpapi.decode_binary_us"] = us(meanDuration(spans, "httpapi.DecodeBinaryIngest"))
	o.layers["persist.append_us"] = us(meanDuration(spans, "persist.Log.Append"))
	o.layers["streaming.observe_ns"] = float64(meanDuration(spans, "StreamingKCenter.ObserveAll")) / ingestBatch
	o.layers["streaming.clone_us"] = us(meanDuration(spans, "StreamingKCenter.Clone"))
	o.layers["engine.ingest_us"] = us(meanDuration(spans, "engine.Engine.Ingest"))
	o.layers["engine.residual_us"] = o.layers["engine.ingest_us"] -
		(o.layers["persist.append_us"] + o.layers["streaming.observe_ns"]*ingestBatch/1000 + o.layers["streaming.clone_us"])
	o.layers["engine.centers_hit_us"] = us(meanDuration(spans, "engine.Engine.Centers.hit"))
	for _, k := range kinds {
		o.layers["engine.centers_miss_ms."+k.name] = ms(meanDuration(spans, "engine.Engine.Centers.miss."+k.name))
	}
	o.layers["window.observe_ns"] = float64(meanDuration(spans, "WindowedKCenter.ObserveAll")) / 64
	o.layers["window.clone_us"] = us(meanDuration(spans, "WindowedKCenter.Clone"))
	o.layers["sketch.snapshot_us"] = us(meanDuration(spans, "sketch.Snapshot"))
	return nil
}

// measureMerge times MergeSketches on the two shards' snapshots of c-0.
func measureMerge(o *outcome, rig *clusterRig, client *http.Client, tr *tracer) error {
	var blobs [][]byte
	for _, s := range rig.shards {
		b, err := fetchSnapshot(client, s.base, "c-0")
		if err != nil {
			return err
		}
		blobs = append(blobs, b)
	}
	var err error
	for i := 0; i < 5; i++ {
		tr.do("kcenter.MergeSketches", 0, func() { _, err = kcenter.MergeSketches(blobs...) })
		if err != nil {
			return err
		}
	}
	o.layers["sketch.merge_ms"] = ms(meanDuration(tr.snapshot(), "kcenter.MergeSketches"))
	return nil
}

// reconcile prints, for each daemon workload, the layer costs next to the
// unloaded end-to-end p50 and the part no layer explains (ledger.gap_pct).
// The gap is a finding: it is the server-side time outside the timed
// layer calls (routing, middleware, response encoding, scheduling).
func reconcile(e *env, o *outcome) {
	L := o.layers
	type row struct {
		name string
		us   float64
	}
	show := func(workload string, rows []row) {
		total := L["ledger.unloaded_p50_us."+workload]
		var explained float64
		say("ledger %s: unloaded end-to-end p50 %.1fus", workload, total)
		for _, r := range rows {
			explained += r.us
			say("  %-34s %9.1fus %6.1f%%", r.name, r.us, 100*r.us/total)
		}
		gap := 100 * (total - explained) / total
		L["ledger.gap_pct."+workload] = gap
		say("  %-34s %9.1fus %6.1f%%", "unexplained (ledger.gap_pct)", total-explained, gap)
	}
	observe := L["streaming.observe_ns"] * ingestBatch / 1000
	show("ingest", []row{
		{"httpapi.transport_us", L["httpapi.transport_us"]},
		{"httpapi.decode_binary_us", L["httpapi.decode_binary_us"]},
		{"persist.append_us", L["persist.append_us"]},
		{"streaming.observe (64 points)", observe},
		{"streaming.clone_us", L["streaming.clone_us"]},
		{"engine.residual_us", L["engine.residual_us"]},
	})
	show("query", []row{
		{"transport (client to server)", L["ledger.unloaded_p50_us.query"] - L["httpapi.centers_server_us"]},
		{"engine.centers_hit_us", L["engine.centers_hit_us"]},
	})
	show("cluster", []row{
		{"transport (client to router)", L["ledger.unloaded_p50_us.cluster"] - L["router.server_us"]},
		{"httpapi.decode_binary_us", L["httpapi.decode_binary_us"]},
		{"router.shard_send_us", L["router.shard_send_us"]},
	})
}

// printSelfTimes prints each span name's call count, mean duration and
// total self time.
func printSelfTimes(e *env, spans []span) {
	self := selfTimes(spans)
	count := map[string]int{}
	total := map[string]time.Duration{}
	for _, s := range spans {
		count[s.Name]++
		total[s.Name] += s.dur()
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	say("spans: name, calls, mean, total self time")
	for _, n := range names {
		say("  %-40s %7d %12s %12s", n, count[n], (total[n] / time.Duration(count[n])).Round(time.Microsecond), self[n].Round(time.Microsecond))
	}
}
