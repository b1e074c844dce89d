package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"coresetclustering/internal/dataset"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/server/httpapi"
)

// The ingest workload: write-heavy, durable daemon, binary frames.
const (
	ingestStreams  = 4
	ingestBatch    = 64   // points per KCFL frame
	ingestRate     = 1000 // batches/s of the fixed-rate phase
	ingestFrames   = 2048 // distinct pre-encoded frames, cycled by the schedule
	ingestUnloaded = 400  // closed-loop requests of the unloaded phase
	compactEvery   = 1024 // the daemon's default -compact-every: records per stream between compactions
	kcflType       = "application/x-kcenter-flat"
	warmup         = time.Second // untimed load before each daemon workload's measurement
)

type ingestRig struct {
	d      *daemon
	frames [][]byte
	acked  map[int]int64 // points acked during set-up (stream creation)
}

func (r *ingestRig) stop() { r.d.stop() }

func (r *ingestRig) url(stream int) string {
	return fmt.Sprintf("%s/streams/in-%d/ingest?k=10", r.d.base, stream)
}

// higgsFrames generates n frames of ingestBatch higgs-family points and
// encodes each as a KCFL body.
func higgsFrames(n int, seed int64) ([]metric.Dataset, [][]byte, error) {
	pts, err := dataset.Generate(dataset.Higgs, n*ingestBatch, seed)
	if err != nil {
		return nil, nil, err
	}
	return encodeFrames(pts, ingestBatch)
}

func encodeFrames(pts metric.Dataset, batch int) ([]metric.Dataset, [][]byte, error) {
	var batches []metric.Dataset
	var frames [][]byte
	for lo := 0; lo+batch <= len(pts); lo += batch {
		b := pts[lo : lo+batch]
		f, err := metric.FlatFromDataset(b)
		if err != nil {
			return nil, nil, err
		}
		batches = append(batches, b)
		frames = append(frames, httpapi.EncodeBinaryIngest(nil, f, nil))
	}
	return batches, frames, nil
}

func setupIngest(e *env) (*ingestRig, error) {
	_, frames, err := higgsFrames(ingestFrames, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "ingest-wal-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(e.bin, "kcenterd"), filepath.Join(e.work, "ingest.log"),
		"-persist-dir", dir, "-fsync", "interval")
	if err != nil {
		return nil, err
	}
	rig := &ingestRig{d: d, frames: frames, acked: map[int]int64{}}
	client := newClient(1)
	// Stream s starts s/ingestStreams of the way into its compaction cycle,
	// so under round-robin load the streams compact one after another, about
	// once a second, instead of all together every four seconds: every 1 s
	// CPU window then holds one compaction.
	for s := 0; s < ingestStreams; s++ {
		n := 1 + s*compactEvery/ingestStreams
		for f := 0; f < n; f++ {
			r := request{method: "POST", url: rig.url(s), body: frames[(s+f*ingestStreams)%len(frames)], contentType: kcflType}
			if status, body, err := send(client, &r); checked(statusOK, &r, status, body, err) != nil {
				d.stop()
				return nil, fmt.Errorf("pre-filling stream in-%d: %v", s, checked(statusOK, &r, status, body, err))
			}
		}
		rig.acked[s] += int64(n * ingestBatch)
	}
	return rig, nil
}

// repeatSetup runs setup n times, stops all but the last rig and returns
// it with the median set-up time.
func repeatSetup[R interface{ stop() }](n int, setup func() (R, error)) (R, float64, error) {
	var times []float64
	var last R
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			r.stop()
		}
		last = r
	}
	return last, median(times), nil
}

// schedule sends frames at rate batches/s for d, round-robin across
// the streams, starting at frame offset first.
func (r *ingestRig) schedule(d time.Duration, rate float64, first int) []request {
	return schedule(d, []float64{rate}, func(_, i int) request {
		n := first + i
		s := n % ingestStreams
		return request{method: "POST", url: r.url(s), body: r.frames[n%len(r.frames)],
			contentType: kcflType, points: ingestBatch, stream: s}
	})
}

var ingestClasses = []class{{name: "ingest.binary"}}

func runIngest(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	rig, setupS, err := repeatSetup(e.setups, func() (*ingestRig, error) { return setupIngest(e) })
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	o.e2e["setup_s"] = setupS
	say("ingest: op = binary 64-point ack at %d batches/s over %d connections (open loop), op_cpu_ms = daemon CPU per batch at that rate, side = unloaded closed-loop ack, rate = saturated points/s over %d connections", ingestRate, conns(), conns())

	acked := rig.acked
	merge := func(res *loadResult) {
		for s, p := range res.acked {
			acked[s] += p
		}
		o.addLoad(res)
	}
	client := newClient(conns())
	// Warm-up at the fixed rate: connections, the daemon's heap and the
	// first compactions settle before anything is timed.
	merge(openLoop(client, conns(), ingestClasses, rig.schedule(warmup, ingestRate, 0), time.Second, nil, 0))
	next := int(warmup.Seconds() * ingestRate)
	before, err := scrape(client, rig.d.base)
	if err != nil {
		return nil, err
	}
	root := tr.begin("workload.ingest", 0)

	// Unloaded: one connection, closed loop — the ledger's reference.
	unl := closedLoop(newClient(1), ingestClasses, rig.schedule(time.Duration(ingestUnloaded)*time.Millisecond, 1000, next), tr, root)
	merge(unl)
	side := summarize(unl.classes[0].lat)
	mid, err := scrape(client, rig.d.base)
	if err != nil {
		return nil, err
	}

	// Fixed rate: the end-to-end latency at 1,000 batches/s.
	mainDur := e.seconds * 2 / 3
	meter := meterCPU(rig.d)
	main := openLoop(client, conns(), ingestClasses, rig.schedule(mainDur, ingestRate, next+ingestUnloaded), time.Second, tr, root)
	merge(main)
	cpuMS, err := meter.perOpMS(main.start, main.dues(0))
	if err != nil {
		return nil, err
	}
	op := summarize(main.classes[0].lat)
	opP50, opTail := windowed(main.classes[0].lat, main.classes[0].due, ingestRate)
	lateS := summarize(main.late)
	growing := backlogGrowing(main.late, time.Millisecond)
	say("  fixed rate: n=%d p50=%.3fms p%.1f=%.3fms gen.late_p99_ms=%.3f backlog_growing=%v",
		op.N, ms(op.P50), op.TailQ, ms(op.Tail), ms(lateS.Tail), growing)
	if growing || main.aborted {
		say("  FLAG: generator lateness kept growing at %d batches/s; the fixed-rate latency is past capacity", ingestRate)
	}

	// Saturation: every connection sends its next frame as soon as the
	// previous one is acked, so no backlog can form and the delivered rate
	// is the highest the daemon sustains.
	sat := saturate(client, conns(), ingestClasses, rig.schedule(e.seconds, 4*ingestRate, next+ingestUnloaded+len(main.late)), e.seconds-mainDur, tr, root)
	merge(sat.loadResult)
	say("  saturation: %d batches in %v, windowed rate %.0f batches/s", sat.classes[0].attempted, sat.elapsed.Round(time.Millisecond), sat.rate)
	tr.end(root)

	after, err := scrape(client, rig.d.base)
	if err != nil {
		return nil, err
	}
	for s := 0; s < ingestStreams; s++ {
		obs, err := streamObserved(client, rig.d.base, fmt.Sprintf("in-%d", s))
		o.check(err == nil && obs == acked[s], "stream in-%d observed %d, acked %d (%v)", s, obs, acked[s], err)
	}
	rss, err := rig.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = rss
	o.e2e["op_p50_ms"] = ms(opP50)
	o.e2e["op_p99_ms"] = ms(opTail)
	o.e2e["op_cpu_ms"] = cpuMS
	o.e2e["side_p50_ms"] = ms(side.P50)
	o.e2e["side_p99_ms"] = ms(side.Tail)
	o.e2e["rate_per_s"] = sat.rate * ingestBatch
	o.layers["gen.late_p99_ms.ingest"] = ms(lateS.Tail)

	// Layer values read off the daemon's own counters.
	route := `route="POST /streams/{name}/ingest"`
	batches := delta(before, after, "kcenterd_ingest_batches_total")
	o.layers["httpapi.server_us"] = 1e6 * ratio(
		delta(before, mid, "kcenterd_http_request_duration_seconds_sum", route),
		delta(before, mid, "kcenterd_http_request_duration_seconds_count", route))
	o.layers["engine.publishes_per_batch"] = ratio(delta(before, after, "kcenterd_view_publishes_total"), batches)
	o.layers["persist.fsyncs_per_append"] = ratio(delta(before, after, "kcenterd_wal_fsyncs_total"), delta(before, after, "kcenterd_wal_appends_total"))
	o.layers["persist.compact_ms"] = 1e3 * ratio(after.sum("kcenterd_compaction_duration_seconds_sum"), after.sum("kcenterd_compaction_duration_seconds_count"))
	o.layers["httpapi.transport_us"] = us(side.P50) - o.layers["httpapi.server_us"]
	o.layers["ledger.unloaded_p50_us.ingest"] = us(side.P50)
	return o, nil
}

// streamObserved reads a stream's observed point count from /stats.
func streamObserved(client *http.Client, base, stream string) (int64, error) {
	resp, err := client.Get(base + "/streams/" + stream + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Observed int64 `json:"observed"`
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stats %s: %s", stream, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Observed, err
}
