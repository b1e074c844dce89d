package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/dataset"
)

// The query workload: read-heavy, in-memory daemon.
const (
	queryPrefill    = 20480 // points per window stream before the run (a full 20,000-point window)
	queryPrefillIns = 5120  // points per insertion-only stream before the run
	queryJSONBatch  = 16
	queryReadRate   = 400 // GET /centers per second
	queryWriteRate  = 50  // JSON batches per second
	querySnapRate   = 10  // POST /snapshot per second
	queryUnloaded   = 300
	queryK          = 10
	queryDim        = 7
	queryWindowSize = 20000
)

// queryStream is one pre-filled stream: its name, creation query and the
// points it holds before the run.
type queryStream struct {
	Name    string `json:"name"`
	Params  string `json:"params"`
	Prefill int    `json:"prefill"`
}

// queryStreams are 36 insertion-only k-center, 36 insertion-only outliers
// and 8 count-window streams. An extraction miss on an outliers stream
// costs 5-13 ms depending on where the stream's data left its doubling
// state; averaged over 36 such streams that cost follows the code, not the
// seed. The insertion-only streams hold 5,120 points each (their sketches
// stay within the budget however long they are), the windows a full
// window. Total read and write rates do not depend on the stream count, so
// neither does the number of misses. The load visits streams round-robin
// in this order, so the kinds are interleaved in blocks of 20 (nine
// k-center/outliers pairs, then two windows): every 1 s CPU window then
// sees the same mix of misses.
var queryStreams = func() []queryStream {
	var out []queryStream
	for b := 0; b < 4; b++ {
		for i := 9 * b; i < 9*b+9; i++ {
			out = append(out,
				queryStream{fmt.Sprintf("q-kc-%d", i), "k=10", queryPrefillIns},
				queryStream{fmt.Sprintf("q-out-%d", i), "k=10&z=10&budget=160", queryPrefillIns})
		}
		for i := 2 * b; i < 2*b+2; i++ {
			out = append(out, queryStream{fmt.Sprintf("q-win-%d", i), "k=10&window=20000", queryPrefill})
		}
	}
	return out
}()

type queryRig struct {
	d      *daemon
	bodies [][][]byte // pre-encoded JSON ingest bodies, per stream
	acked  map[int]int64
}

func (r *queryRig) stop() { r.d.stop() }

// setupQuery generates each stream's points from its own seed derived from
// the workload seed, as independent tenants would send them.
func setupQuery(e *env, seconds time.Duration) (*queryRig, error) {
	nStreams := len(queryStreams)
	perStreamBodies := int(queryWriteRate*(seconds+warmup).Seconds())/nStreams + 1
	rig := &queryRig{acked: map[int]int64{}}
	frames := make([][][]byte, nStreams)
	for s, q := range queryStreams {
		pts, err := dataset.Generate(dataset.Power, q.Prefill+perStreamBodies*queryJSONBatch, e.seed*int64(nStreams)+int64(s))
		if err != nil {
			return nil, err
		}
		if _, frames[s], err = encodeFrames(pts[:q.Prefill], ingestBatch); err != nil {
			return nil, err
		}
		var bodies [][]byte
		for lo := q.Prefill; lo+queryJSONBatch <= len(pts); lo += queryJSONBatch {
			b, err := json.Marshal(map[string]any{"points": pts[lo : lo+queryJSONBatch]})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		rig.bodies = append(rig.bodies, bodies)
	}
	var err error
	rig.d, err = startDaemon(filepath.Join(e.bin, "kcenterd"), filepath.Join(e.work, "query.log"))
	if err != nil {
		return nil, err
	}
	// Pre-fill: one goroutine per connection, each owning whole streams so
	// every stream sees its frames in order.
	var wg sync.WaitGroup
	errs := make([]error, conns())
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := newClient(1)
			for s := w; s < nStreams; s += conns() {
				url := fmt.Sprintf("%s/streams/%s/ingest?%s", rig.d.base, queryStreams[s].Name, queryStreams[s].Params)
				for _, frame := range frames[s] {
					r := request{method: "POST", url: url, body: frame, contentType: kcflType}
					status, body, err := send(client, &r)
					if err := checked(statusOK, &r, status, body, err); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rig.d.stop()
			return nil, fmt.Errorf("pre-filling query streams: %w", err)
		}
	}
	for s := range queryStreams {
		rig.acked[s] = int64(len(frames[s]) * ingestBatch)
	}
	return rig, nil
}

// centersAnswer is the part of a /centers answer the checks read.
type centersAnswer struct {
	Observed int64       `json:"observed"`
	Shards   int         `json:"shards"`
	Centers  [][]float64 `json:"centers"`
}

// checkCenters accepts an answer with 1..k centers of the stream's dimension.
func checkCenters(r *request, status int, body []byte) error {
	if err := statusOK(r, status, body); err != nil {
		return err
	}
	var a centersAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: %w", r.url, err)
	}
	if len(a.Centers) < 1 || len(a.Centers) > queryK {
		return fmt.Errorf("%s: %d centers, want 1..%d", r.url, len(a.Centers), queryK)
	}
	for _, c := range a.Centers {
		if len(c) != queryDim {
			return fmt.Errorf("%s: center of dimension %d, want %d", r.url, len(c), queryDim)
		}
	}
	return nil
}

// checkSketch accepts a snapshot body the library can inspect.
func checkSketch(r *request, status int, body []byte) error {
	if err := statusOK(r, status, body); err != nil {
		return err
	}
	if _, err := kcenter.InspectSketch(body); err != nil {
		return fmt.Errorf("%s: %w", r.url, err)
	}
	return nil
}

var queryClasses = []class{
	{name: "query.centers", check: checkCenters},
	{name: "query.ingest.json"},
	{name: "query.snapshot", check: checkSketch},
}

func (r *queryRig) schedule(d time.Duration) []request {
	n := len(queryStreams)
	return schedule(d, []float64{queryReadRate, queryWriteRate, querySnapRate}, func(c, i int) request {
		s := i % n
		base := r.d.base + "/streams/" + queryStreams[s].Name
		switch c {
		case 0:
			return request{method: "GET", url: base + "/centers", stream: s}
		case 1:
			body := r.bodies[s][(i/n)%len(r.bodies[s])]
			return request{method: "POST", url: base + "/points", body: body,
				contentType: "application/json", points: queryJSONBatch, stream: s}
		default:
			return request{method: "POST", url: base + "/snapshot", stream: s}
		}
	})
}

func runQuery(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	rig, setupS, err := repeatSetup(e.setups, func() (*queryRig, error) { return setupQuery(e, e.seconds) })
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	o.e2e["setup_s"] = setupS
	say("query: op = GET /centers at %d/s, side = 16-point JSON ingest at %d/s beside it (plus POST /snapshot at %d/s), open loop over %d connections; op_cpu_ms = daemon CPU per request of the mix, rate = reads answered per second",
		queryReadRate, queryWriteRate, querySnapRate, conns())

	client := newClient(conns())
	warm := openLoop(client, conns(), queryClasses, rig.schedule(warmup), time.Second, nil, 0)
	o.addLoad(warm)
	for s, p := range warm.acked {
		rig.acked[s] += p
	}
	before, err := scrape(client, rig.d.base)
	if err != nil {
		return nil, err
	}
	root := tr.begin("workload.query", 0)
	unlReqs := make([]request, queryUnloaded)
	for i := range unlReqs {
		unlReqs[i] = request{method: "GET", url: rig.d.base + "/streams/q-kc-0/centers"}
	}
	unl := closedLoop(newClient(1), queryClasses, unlReqs, tr, root)
	o.addLoad(unl)
	mid, err := scrape(client, rig.d.base)
	if err != nil {
		return nil, err
	}
	meter := meterCPU(rig.d)
	res := openLoop(client, conns(), queryClasses, rig.schedule(e.seconds), time.Second, tr, root)
	tr.end(root)
	cpuMS, err := meter.perOpMS(res.start, res.dues(0, 1, 2))
	if err != nil {
		return nil, err
	}
	o.addLoad(res)
	for s, p := range res.acked {
		rig.acked[s] += p
	}
	for _, c := range res.classes {
		if c.firstErr != nil {
			say("  first failure: %v", c.firstErr)
		}
	}
	after, err := scrape(client, rig.d.base)
	if err != nil {
		return nil, err
	}
	for s, q := range queryStreams {
		obs, err := streamObserved(client, rig.d.base, q.Name)
		o.check(err == nil && obs == rig.acked[s], "stream %s observed %d, acked %d (%v)", q.Name, obs, rig.acked[s], err)
	}
	rss, err := rig.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	op, side, lateS := summarize(res.classes[0].lat), summarize(res.classes[1].lat), summarize(res.late)
	unlS := summarize(unl.classes[0].lat)
	say("  centers n=%d p50=%.3fms p%.1f=%.3fms; json ingest n=%d p50=%.3fms p%.1f=%.3fms; gen.late_p99_ms=%.3f backlog_growing=%v",
		op.N, ms(op.P50), op.TailQ, ms(op.Tail), side.N, ms(side.P50), side.TailQ, ms(side.Tail), ms(lateS.Tail), backlogGrowing(res.late, time.Millisecond))
	o.e2e["rss_mb"] = rss
	o.e2e["op_p50_ms"] = ms(op.P50)
	o.e2e["op_p99_ms"] = ms(op.Tail)
	o.e2e["op_cpu_ms"] = cpuMS
	o.e2e["side_p50_ms"] = ms(side.P50)
	o.e2e["side_p99_ms"] = ms(side.Tail)
	o.e2e["rate_per_s"] = float64(op.N) / res.elapsed.Seconds()

	route := `route="GET /streams/{name}/centers"`
	o.layers["httpapi.centers_server_us"] = 1e6 * ratio(
		delta(before, mid, "kcenterd_http_request_duration_seconds_sum", route),
		delta(before, mid, "kcenterd_http_request_duration_seconds_count", route))
	hits := delta(before, after, "kcenterd_extraction_cache_hits_total")
	o.layers["engine.cache_hit_ratio"] = ratio(hits, hits+delta(before, after, "kcenterd_extraction_cache_misses_total"))
	o.layers["gen.late_p99_ms.query"] = ms(lateS.Tail)
	o.layers["ledger.unloaded_p50_us.query"] = us(unlS.P50)
	return o, nil
}
