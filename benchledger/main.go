// Command benchledger is the repository's benchmark: one command that runs
// one of four workloads against the coreset k-center stack and prints a
// ledger of end-to-end and per-layer costs.
//
//	benchledger --workload <mr-batch|ingest|query|cluster> --seed N --seconds S --trace 0|1 [--bin DIR] [--out DIR]
//
// mr-batch runs the library in-process; ingest, query and cluster drive
// kcenterd child processes (built into --bin by run.sh). With --trace 0 the
// last line of standard output is a JSON object carrying the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of every layer,
// measured by a traced pass over all four workloads, and the spans are
// written under --out. The process exits non-zero when an output check
// fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics every workload reports, with their
// units; BENCHMARK.json declares the same names and their bounds. Each
// workload gives "op" its own operation (see the workload's report header).
// Wall-clock latencies and rates moved by a third or more between runs on
// a shared 2-vCPU host, so they are printed and recorded (latency.* in the
// traced run) but not gated; CPU time per operation excludes time stolen
// by the hypervisor and repeats within a few percent.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"op_cpu_ms", "ms"},
}

// latencies are the wall-clock figures every workload measures and prints;
// the traced run records them as latency.<name> for the named workload.
var latencies = []struct{ name, unit string }{
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"side_p99_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// env carries what every workload needs.
type env struct {
	seed    int64
	seconds time.Duration
	bin     string // directory holding the kcenterd binary
	work    string // scratch directory for daemon logs and WAL directories
	setups  int    // set-ups per pass; setup_s is their median
}

// outcome is one workload pass: end-to-end values, per-layer values and
// the operation counts.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	spans     []span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts a failed output check as a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	say("CHECK FAILED: "+format, args...)
}

// check counts an output check as one attempted operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		o.attempted++
		return
	}
	o.fail(format, args...)
}

func (o *outcome) addLoad(res *loadResult) {
	a, f := res.totals()
	o.attempted += a
	o.failed += f
}

// say prints one line of the human-readable ledger; the final JSON line is
// printed by main.
func say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

type workload struct {
	name string
	run  func(e *env, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"mr-batch", runMRBatch},
	{"ingest", runIngest},
	{"query", runQuery},
	{"cluster", runCluster},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchledger:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "mr-batch, ingest, query or cluster")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the kcenterd binary")
		outDir  = flag.String("out", ".bench_build/ledger", "directory for spans, daemon logs and result records")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(filepath.Join(*bin, "kcenterd")); err != nil {
		return fmt.Errorf("kcenterd binary: %w", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{setups: 3, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: work}
	m := describeMachine()
	say("benchledger workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s source=%s",
		w.name, e.seed, *seconds, *trace, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Source)

	var o *outcome
	var metrics map[string]any
	if *trace == 1 {
		o, err = runLedger(e, w)
		if err != nil {
			return err
		}
		if err := writeSpans(*outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, e.seed), o.spans); err != nil {
			return err
		}
		metrics = layerMetrics(o.layers)
	} else {
		o, err = w.run(e, nil)
		if err != nil {
			return err
		}
		metrics = map[string]any{}
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", w.name, m.name)
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
			say("  %-12s %14.6g %s", m.name, v, m.unit)
		}
		for _, m := range latencies {
			say("  %-12s %14.6g %s (not gated)", m.name, o.e2e[m.name], m.unit)
		}
	}
	say("  operations attempted=%d failed=%d", o.attempted, o.failed)
	correct := o.failed == 0
	final := map[string]any{"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": metrics}
	if err := recordResult(*outDir, w.name, e.seed, *trace, m, final); err != nil {
		return err
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		return errors.New("output checks failed")
	}
	return nil
}

// layerMetrics shapes the per-layer values for the JSON line, units taken
// from layerUnits; every declared per-layer metric must be present.
func layerMetrics(v map[string]float64) map[string]any {
	out := map[string]any{}
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		val, ok := v[name]
		if !ok {
			fmt.Printf("  %-36s (not measured)\n", name)
			continue
		}
		out[name] = map[string]any{"value": val, "unit": layerUnits[name]}
		fmt.Printf("  %-36s %14.6g %s\n", name, val, layerUnits[name])
	}
	return out
}

// machine identifies where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Source     string `json:"source"` // git SHA, or a digest of the Go sources when no git metadata exists
}

func describeMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Source:     sourceID(),
	}
}

// sourceID reads SOURCE_ID, which run.sh sets to the git SHA or, in a
// checkout without git metadata, to a digest of the Go sources.
func sourceID() string {
	if s := strings.TrimSpace(os.Getenv("SOURCE_ID")); s != "" {
		return s
	}
	return "unknown"
}

// recordResult appends the result, with the machine, to results.jsonl.
func recordResult(dir, name string, seed int64, trace int, m machine, final map[string]any) error {
	rec := map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "workload": name, "seed": seed,
		"trace": trace, "machine": m, "params": workloadParams[name], "result": final,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
