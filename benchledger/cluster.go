package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"
)

// The cluster workload: a router in front of two in-memory shards.
const (
	clusterStreams  = 2
	clusterRate     = 500 // binary batches/s through the router
	clusterReadRate = 2   // GET /centers?refresh=1 per second
	clusterUnloaded = 300
)

type clusterRig struct {
	router *daemon
	shards []*daemon
	frames [][]byte
	acked  map[int]int64
}

// stop stops every daemon started so far (daemon.stop is nil-safe).
func (r *clusterRig) stop() {
	r.router.stop()
	for _, s := range r.shards {
		s.stop()
	}
}

func (r *clusterRig) url(base string, stream int) string {
	return fmt.Sprintf("%s/streams/c-%d/ingest?k=10", base, stream)
}

func setupCluster(e *env) (*clusterRig, error) {
	_, frames, err := higgsFrames(ingestFrames, e.seed)
	if err != nil {
		return nil, err
	}
	rig := &clusterRig{frames: frames, acked: map[int]int64{}}
	bin := filepath.Join(e.bin, "kcenterd")
	var addrs string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(bin, filepath.Join(e.work, fmt.Sprintf("shard-%d.log", i)))
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.shards = append(rig.shards, d)
		if i > 0 {
			addrs += ","
		}
		addrs += d.addr
	}
	rig.router, err = startDaemon(bin, filepath.Join(e.work, "router.log"), "-role=router", "-shards", addrs)
	if err != nil {
		rig.stop()
		return nil, err
	}
	client := newClient(1)
	for s := 0; s < clusterStreams; s++ {
		r := request{method: "POST", url: rig.url(rig.router.base, s), body: frames[s], contentType: kcflType}
		status, body, err := send(client, &r)
		if err := checked(statusOK, &r, status, body, err); err != nil {
			rig.stop()
			return nil, fmt.Errorf("creating stream c-%d: %w", s, err)
		}
		rig.acked[s] += ingestBatch
	}
	return rig, nil
}

var clusterClasses = []class{
	{name: "cluster.ingest"},
	{name: "cluster.read", check: checkCenters},
}

// schedule sends frames at rate batches/s to base, round-robin across the
// streams, plus merged reads through the router when reads is set.
func (r *clusterRig) schedule(d time.Duration, base string, rate float64, reads bool, first int) []request {
	rates := []float64{rate}
	if reads {
		rates = append(rates, clusterReadRate)
	}
	return schedule(d, rates, func(c, i int) request {
		s := i % clusterStreams
		if c == 1 {
			return request{method: "GET", url: fmt.Sprintf("%s/streams/c-%d/centers?refresh=1", r.router.base, s), stream: s}
		}
		n := first + i
		return request{method: "POST", url: r.url(base, s), body: r.frames[n%len(r.frames)],
			contentType: kcflType, points: ingestBatch, stream: s}
	})
}

func runCluster(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	rig, setupS, err := repeatSetup(e.setups, func() (*clusterRig, error) { return setupCluster(e) })
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	o.e2e["setup_s"] = setupS
	say("cluster: op = binary 64-point ack through the router at %d batches/s, side = GET /centers?refresh=1 at %d/s, open loop over %d connections; op_cpu_ms = router plus shard CPU per batch, rate = points acked per second",
		clusterRate, clusterReadRate, conns())

	client := newClient(conns())
	warm := openLoop(client, conns(), clusterClasses, rig.schedule(warmup, rig.router.base, clusterRate, false, 0), time.Second, nil, 0)
	o.addLoad(warm)
	for s, p := range warm.acked {
		rig.acked[s] += p
	}
	before, err := scrape(client, rig.router.base)
	if err != nil {
		return nil, err
	}
	root := tr.begin("workload.cluster", 0)
	unl := closedLoop(newClient(1), clusterClasses, rig.schedule(clusterUnloaded*time.Millisecond, rig.router.base, 1000, false, len(warm.late)), tr, root)
	o.addLoad(unl)
	mid, err := scrape(client, rig.router.base)
	if err != nil {
		return nil, err
	}
	daemons := append([]*daemon{rig.router}, rig.shards...)
	meter := meterCPU(daemons...)
	res := openLoop(client, conns(), clusterClasses, rig.schedule(e.seconds, rig.router.base, clusterRate, true, len(warm.late)+clusterUnloaded), time.Second, tr, root)
	tr.end(root)
	cpuMS, err := meter.perOpMS(res.start, res.dues(0))
	if err != nil {
		return nil, err
	}
	o.addLoad(res)
	for _, x := range []*loadResult{unl, res} {
		for s, p := range x.acked {
			rig.acked[s] += p
		}
	}
	for _, c := range res.classes {
		if c.firstErr != nil {
			say("  first failure: %v", c.firstErr)
		}
	}
	after, err := scrape(client, rig.router.base)
	if err != nil {
		return nil, err
	}
	for s := 0; s < clusterStreams; s++ {
		obs, err := mergedObserved(client, rig.router.base, s)
		o.check(err == nil && obs == rig.acked[s], "router merged observed %d for c-%d, acked %d (%v)", obs, s, rig.acked[s], err)
	}
	var rss float64
	for _, d := range append([]*daemon{rig.router}, rig.shards...) {
		v, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += v
	}
	op, side, lateS := summarize(res.classes[0].lat), summarize(res.classes[1].lat), summarize(res.late)
	say("  router ingest n=%d p50=%.3fms p%.1f=%.3fms; merged read n=%d p50=%.3fms; gen.late_p99_ms=%.3f backlog_growing=%v",
		op.N, ms(op.P50), op.TailQ, ms(op.Tail), side.N, ms(side.P50), ms(lateS.Tail), backlogGrowing(res.late, time.Millisecond))
	o.e2e["rss_mb"] = rss
	o.e2e["op_p50_ms"] = ms(op.P50)
	o.e2e["op_p99_ms"] = ms(op.Tail)
	o.e2e["op_cpu_ms"] = cpuMS
	o.e2e["side_p50_ms"] = ms(side.P50)
	o.e2e["side_p99_ms"] = ms(side.Tail)
	var points int64
	for _, p := range res.acked {
		points += p
	}
	o.e2e["rate_per_s"] = float64(points) / res.elapsed.Seconds()

	if tr != nil {
		// Direct-to-shard ingest at the same rate: the router's added cost
		// is the difference of the two medians.
		direct := openLoop(client, conns(), clusterClasses[:1], rig.schedule(e.seconds/2, rig.shards[0].base, clusterRate, false, 0), time.Second, tr, 0)
		o.addLoad(direct)
		o.layers["router.fanout_us"] = us(op.P50) - us(summarize(direct.classes[0].lat).P50)
		if err := measureMerge(o, rig, client, tr); err != nil {
			return nil, err
		}
	}
	batches := delta(before, after, "kcenterd_router_ingest_batches_total")
	o.layers["router.shard_sends_per_batch"] = ratio(delta(before, after, "kcenterd_router_shard_sends_total"), batches)
	o.layers["router.shard_retries_per_batch"] = ratio(delta(before, after, "kcenterd_router_shard_retries_total"), batches)
	o.layers["router.shard_send_us"] = 1e6 * ratio(
		delta(before, mid, "kcenterd_router_shard_send_duration_seconds_sum"),
		delta(before, mid, "kcenterd_router_shard_send_duration_seconds_count"))
	route := `route="POST /streams/{name}/ingest"`
	o.layers["router.server_us"] = 1e6 * ratio(
		delta(before, mid, "kcenterd_router_http_request_duration_seconds_sum", route),
		delta(before, mid, "kcenterd_router_http_request_duration_seconds_count", route))
	o.layers["gen.late_p99_ms.cluster"] = ms(lateS.Tail)
	o.layers["ledger.unloaded_p50_us.cluster"] = us(summarize(unl.classes[0].lat).P50)
	return o, nil
}

// mergedObserved forces a merge and reads the cluster-wide observed count.
func mergedObserved(client *http.Client, router string, stream int) (int64, error) {
	r := request{method: "GET", url: fmt.Sprintf("%s/streams/c-%d/centers?refresh=1", router, stream)}
	status, body, err := send(client, &r)
	if err := checked(checkCenters, &r, status, body, err); err != nil {
		return 0, err
	}
	var a centersAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, err
	}
	if a.Shards != 2 {
		return 0, fmt.Errorf("merged view covers %d shards, want 2", a.Shards)
	}
	return a.Observed, nil
}

// fetchSnapshot reads one shard's sketch of a stream.
func fetchSnapshot(client *http.Client, base, stream string) ([]byte, error) {
	resp, err := client.Post(base+"/streams/"+stream+"/snapshot", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s: %s", stream, resp.Status)
	}
	return b, nil
}
