package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one pre-built HTTP call of a load schedule. Bodies are encoded
// during set-up so the timed loop only sends bytes.
type request struct {
	class       int           // index into the schedule's classes
	due         time.Duration // offset from the schedule start
	method, url string
	body        []byte
	contentType string
	points      int // points carried, credited to the stream when acked
	stream      int
}

// class is one kind of request in a schedule, with its output check.
type class struct {
	name  string
	check func(r *request, status int, body []byte) error
}

// classResult collects one class's outcomes.
type classResult struct {
	lat       []time.Duration
	due       []time.Duration // schedule offset of each lat sample
	attempted int
	failed    int
	firstErr  error
}

// loadResult is the outcome of one open- or closed-loop phase.
type loadResult struct {
	classes []classResult
	late    []time.Duration // per sent request, in schedule order
	acked   map[int]int64   // points acked per stream
	aborted bool            // the generator fell more than abortLate behind
	start   time.Time       // when the schedule's offsets count from
	elapsed time.Duration
}

func (r *loadResult) totals() (attempted, failed int) {
	for _, c := range r.classes {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

// dues lists the schedule offsets of the acked requests of the given
// classes.
func (r *loadResult) dues(classes ...int) []time.Duration {
	var out []time.Duration
	for _, c := range classes {
		out = append(out, r.classes[c].due...)
	}
	return out
}

// conns is the number of connections a generator drives: one per CPU, so
// the load comes from a single process without oversubscribing the host.
func conns() int { return runtime.NumCPU() }

func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
			DisableCompression:  true,
		},
	}
}

// schedule merges per-class arrival streams into one list ordered by due
// time. Each class c sends rate[c] requests per second for d, evenly spaced;
// build(c, i) makes the i-th request of class c.
func schedule(d time.Duration, rates []float64, build func(c, i int) request) []request {
	var out []request
	for c, rate := range rates {
		n := int(rate * d.Seconds())
		step := time.Duration(float64(time.Second) / rate)
		for i := 0; i < n; i++ {
			r := build(c, i)
			r.class, r.due = c, time.Duration(i)*step
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// openLoop sends reqs on schedule over n connections regardless of how fast
// answers come back, and times every request from the moment it was due, so
// a stall is charged to every request it delays. If the generator falls
// more than abortLate behind, the rest of the schedule is dropped (not
// attempted) and the result is marked aborted. tr records one span per
// request under parent.
func openLoop(client *http.Client, n int, classes []class, reqs []request, abortLate time.Duration, tr *tracer, parent int) *loadResult {
	res := &loadResult{classes: make([]classResult, len(classes)), late: make([]time.Duration, len(reqs)), acked: map[int]int64{}}
	lat := make([]time.Duration, len(reqs))
	errs := make([]error, len(reqs))
	sent := make([]bool, len(reqs))
	var next atomic.Int64
	var stopped atomic.Bool
	start := time.Now()
	res.start = start
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				dueAt := start.Add(r.due)
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(dueAt)
				if abortLate > 0 && late > abortLate {
					stopped.Store(true)
					return
				}
				res.late[i] = late
				sent[i] = true
				id := tr.begin(classes[r.class].name, parent)
				status, body, err := send(client, r)
				tr.end(id)
				lat[i] = time.Since(dueAt)
				errs[i] = checked(classes[r.class].check, r, status, body, err)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.aborted = stopped.Load()
	var late []time.Duration
	for i := range reqs {
		if !sent[i] {
			continue
		}
		late = append(late, res.late[i])
		res.record(&reqs[i], lat[i], errs[i])
	}
	res.late = late
	return res
}

// closedLoop sends reqs one after another on one connection, each as soon
// as the previous answer arrived, and times each from its own send: the
// unloaded latency the ledger reconciles against.
func closedLoop(client *http.Client, classes []class, reqs []request, tr *tracer, parent int) *loadResult {
	res := &loadResult{classes: make([]classResult, len(classes)), acked: map[int]int64{}}
	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		id := tr.begin(classes[r.class].name, parent)
		status, body, err := send(client, r)
		tr.end(id)
		lat := time.Since(t0)
		res.record(r, lat, checked(classes[r.class].check, r, status, body, err))
	}
	res.elapsed = time.Since(start)
	return res
}

// saturated is a closed-loop phase over several connections.
type saturated struct {
	*loadResult
	rate float64 // median over 250ms windows of completed requests per second
}

// saturate drives n connections in closed loop for d, each sending its next
// request of reqs as soon as the previous answer arrived. The delivered
// rate is the median over 250ms windows, so a short stall moves one window.
func saturate(client *http.Client, n int, classes []class, reqs []request, d time.Duration, tr *tracer, parent int) *saturated {
	const window = 250 * time.Millisecond
	res := &loadResult{classes: make([]classResult, len(classes)), acked: map[int]int64{}}
	lat := make([]time.Duration, len(reqs))
	errs := make([]error, len(reqs))
	doneAt := make([]time.Duration, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				t0 := time.Now()
				id := tr.begin(classes[r.class].name, parent)
				status, body, err := send(client, r)
				tr.end(id)
				lat[i] = time.Since(t0)
				doneAt[i] = time.Since(start)
				errs[i] = checked(classes[r.class].check, r, status, body, err)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sent := min(int(next.Load()), len(reqs))
	counts := make([]float64, int(d/window))
	for i := 0; i < sent; i++ {
		res.record(&reqs[i], lat[i], errs[i])
		if w := int(doneAt[i] / window); errs[i] == nil && w < len(counts) {
			counts[w]++
		}
	}
	return &saturated{loadResult: res, rate: median(counts) / window.Seconds()}
}

func (res *loadResult) record(r *request, lat time.Duration, err error) {
	c := &res.classes[r.class]
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	c.lat = append(c.lat, lat)
	c.due = append(c.due, r.due)
	res.acked[r.stream] += int64(r.points)
}

// send performs one request and reads the whole answer. Checks run after
// the clock stops, so the benchmark's own parsing is not charged to the
// system under test.
func send(client *http.Client, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, r.url, body)
	if err != nil {
		return 0, nil, err
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

func checked(check func(*request, int, []byte) error, r *request, status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if check == nil {
		check = statusOK
	}
	return check(r, status, body)
}

// statusOK is the check of a request whose only output is its status.
func statusOK(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", r.method, r.url, status, bytes.TrimSpace(body))
	}
	return nil
}
