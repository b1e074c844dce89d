package main

import (
	"math"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantIdx int
		wantQ   float64
	}{
		{n: 1, wantIdx: 0, wantQ: 100},
		{n: 10, wantIdx: 9, wantQ: 100}, // too few: the slowest sample
		{n: 11, wantIdx: 0, wantQ: 100.0 / 11},
		{n: 20, wantIdx: 9, wantQ: 50},    // 10 samples beyond the 10th
		{n: 500, wantIdx: 489, wantQ: 98}, // p99 would leave only 5 beyond
		{n: 1000, wantIdx: 989, wantQ: 99},
		{n: 5000, wantIdx: 4949, wantQ: 99},
	}
	for _, c := range cases {
		idx, q := tailIndex(c.n)
		if idx != c.wantIdx || q != c.wantQ {
			t.Errorf("tailIndex(%d) = %d, %v; want %d, %v", c.n, idx, q, c.wantIdx, c.wantQ)
		}
		if c.n > minBeyond && c.n-1-idx < minBeyond {
			t.Errorf("tailIndex(%d) leaves %d samples beyond, want >= %d", c.n, c.n-1-idx, minBeyond)
		}
	}
	// 1..1000 ms: the reported tail is the 990th sample, with 10 above it.
	var s []time.Duration
	for i := 1000; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if got := summarize(s); got.Tail != 990*time.Millisecond || got.P50 != 500*time.Millisecond || got.N != 1000 {
		t.Errorf("summarize = %+v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two concurrent sends overlapping on [20, 40], one running past
		// the parent's end: covered = [10, 50] + [70, 100] = 70ms.
		{ID: 2, Parent: 1, Name: "send", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "send", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "apply", Start: 70 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Name: "decode", Start: 25 * ms, End: 30 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root":   30 * ms,
		"send":   30*ms + 25*ms, // 30 + (30 - 5)
		"apply":  50 * ms,
		"decode": 5 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestBacklogDetection(t *testing.T) {
	flat := make([]time.Duration, 300)
	for i := range flat {
		flat[i] = time.Duration(50+i%7) * time.Microsecond
	}
	if backlogGrowing(flat, time.Millisecond) {
		t.Error("flat lateness reported as a growing backlog")
	}
	// One stall in the middle: lateness jumps and recovers.
	stall := append([]time.Duration(nil), flat...)
	for i := 140; i < 160; i++ {
		stall[i] = 30 * time.Millisecond
	}
	if backlogGrowing(stall, time.Millisecond) {
		t.Error("a recovered stall reported as a growing backlog")
	}
	// Past capacity: each request is later than the one before.
	growing := make([]time.Duration, 300)
	for i := range growing {
		growing[i] = time.Duration(i) * 200 * time.Microsecond
	}
	if !backlogGrowing(growing, time.Millisecond) {
		t.Error("steadily growing lateness not flagged")
	}
	// Steady but high lateness is not growth.
	high := make([]time.Duration, 300)
	for i := range high {
		high[i] = 20 * time.Millisecond
	}
	if backlogGrowing(high, time.Millisecond) {
		t.Error("constant lateness reported as growing")
	}
}

func TestWindowedTailUsesMedianWindow(t *testing.T) {
	// Five 1s windows of 1,000 samples at 1,000/s; one window holds a stall.
	var lat, due []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Millisecond
		if i/1000 == 2 && i%1000 >= 900 {
			d = 40 * time.Millisecond
		}
		lat = append(lat, d)
		due = append(due, time.Duration(i)*time.Millisecond)
	}
	p50, tail := windowed(lat, due, 1000)
	if p50 != time.Millisecond || tail != time.Millisecond {
		t.Errorf("windowed = %v, %v; want 1ms, 1ms", p50, tail)
	}
	if all := summarize(lat); all.Tail != 40*time.Millisecond {
		t.Errorf("whole-run tail = %v, want the stall", all.Tail)
	}
}

func TestWindowPerOpMSUsesMedianWindow(t *testing.T) {
	// 100 operations due per second for 5s; 10ms of CPU per second except
	// one window where a burst of host noise costs 60ms.
	start := time.Unix(1000, 0)
	var due []time.Duration
	for i := 0; i < 500; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	var samples []cpuSample
	cpu := 0.0
	for w := 0; w <= 5; w++ {
		samples = append(samples, cpuSample{start.Add(time.Duration(w) * time.Second), cpu})
		cpu += 0.010
		if w == 2 {
			cpu += 0.050
		}
	}
	// A short trailing window is left out.
	samples = append(samples, cpuSample{start.Add(5100 * time.Millisecond), cpu + 1})
	got, err := windowPerOpMS(samples, start, due)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("windowPerOpMS = %v, want %v", got, want)
	}
	// Too few windows: the whole phase counts as one.
	got, err = windowPerOpMS(samples[:3], start, due[:200])
	if err != nil {
		t.Fatal(err)
	}
	if want := 1e3 * 0.020 / 200; math.Abs(got-want) > 1e-9 {
		t.Errorf("two-window windowPerOpMS = %v, want %v", got, want)
	}
	if _, err := windowPerOpMS(samples[:1], start, due); err == nil {
		t.Error("a single sample gave no error")
	}
}
