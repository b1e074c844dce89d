package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one kcenterd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	base string
	done chan struct{} // closed once the process has been reaped
	log  *os.File
}

// startDaemon launches bin on a free loopback port with args and waits for
// /healthz to answer 200.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStart(bin, logPath, args)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin, logPath string, args []string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The daemon dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, base: "http://" + addr, done: make(chan struct{}), log: lf}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	if err := d.waitHealthy(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (d *daemon) waitHealthy(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("daemon on %s exited during start-up", d.addr)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("daemon on %s not healthy after %v", d.addr, timeout)
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after five
// seconds) and closes its log.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// cpuSeconds reads the CPU time the process's threads have run, in
// nanoseconds from each thread's schedstat. The kernel leaves time stolen
// by the hypervisor out of it, which makes CPU cost per operation steadier
// than wall time on a shared host.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s of pid %d", t.Name(), d.cmd.Process.Pid)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// cpuOf sums cpuSeconds over daemons.
func cpuOf(ds ...*daemon) (float64, error) {
	var total float64
	for _, d := range ds {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// cpuSample is the daemons' summed CPU seconds at one instant.
type cpuSample struct {
	at  time.Time
	cpu float64
}

// cpuMeter samples the summed CPU time of daemons once a second while a
// load phase runs, so CPU per operation can be read per window and a burst
// of host noise moves a few windows instead of the whole run.
type cpuMeter struct {
	samples []cpuSample
	err     error
	stop    chan struct{}
	done    chan struct{}
}

const cpuWindow = time.Second

func meterCPU(ds ...*daemon) *cpuMeter {
	m := &cpuMeter{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() bool {
		v, err := cpuOf(ds...)
		if err != nil {
			m.err = err
			return false
		}
		m.samples = append(m.samples, cpuSample{time.Now(), v})
		return true
	}
	sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(cpuWindow)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				sample()
				return
			case <-t.C:
				if !sample() {
					return
				}
			}
		}
	}()
	return m
}

// perOpMS stops the meter and reports CPU milliseconds per operation over
// its windows (see windowPerOpMS).
func (m *cpuMeter) perOpMS(start time.Time, due []time.Duration) (float64, error) {
	close(m.stop)
	<-m.done
	if m.err != nil {
		return 0, m.err
	}
	return windowPerOpMS(m.samples, start, due)
}

// windowPerOpMS is the median over the windows between consecutive samples
// of the CPU spent in the window divided by the operations due in it, in
// ms; due holds the due times of the counted operations, measured from
// start. Windows shorter than half a window (the last one) are left out;
// with fewer than three windows the whole phase is one window.
func windowPerOpMS(s []cpuSample, start time.Time, due []time.Duration) (float64, error) {
	if len(s) < 2 || len(due) == 0 {
		return 0, errors.New("CPU meter: no complete window")
	}
	at := make([]time.Time, len(due))
	for i, d := range due {
		at[i] = start.Add(d)
	}
	sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
	count := func(a, b time.Time) int {
		lo := sort.Search(len(at), func(i int) bool { return !at[i].Before(a) })
		hi := sort.Search(len(at), func(i int) bool { return !at[i].Before(b) })
		return hi - lo
	}
	var perOp []float64
	for i := 1; i < len(s); i++ {
		if s[i].at.Sub(s[i-1].at) < cpuWindow/2 {
			continue
		}
		if n := count(s[i-1].at, s[i].at); n > 0 {
			perOp = append(perOp, 1e3*(s[i].cpu-s[i-1].cpu)/float64(n))
		}
	}
	if len(perOp) < 3 {
		return 1e3 * (s[len(s)-1].cpu - s[0].cpu) / float64(len(due)), nil
	}
	return median(perOp), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}

// promSample is one scraped /metrics exposition: series (name plus label
// set, exactly as printed) to value.
type promSample map[string]float64

func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(promSample)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series whose name is name and whose label set contains
// all of the given label fragments (e.g. `route="POST /streams/{name}/ingest"`).
func (p promSample) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range p {
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after.sum - before.sum for the same selection.
func delta(before, after promSample, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// ratio divides two deltas, 0 when the denominator did not move.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
