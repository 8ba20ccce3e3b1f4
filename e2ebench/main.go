// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the real system — an in-process fdserve server over
// loopback TCP, or a sched coordinator with two in-process workers —
// times it from the client's side, checks every output, and prints the
// metrics BENCHMARK.json names.
//
//	go run . --workload serve_warm --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the same
// workload with spans and counters on, prints the per-layer metrics and
// writes the spans as obs JSONL (render with `fdreport trace FILE`).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed correctness check prints that object with "correct": false
// and exits 1. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

// metric is one reported figure with the sample count behind it (0 for
// a single measurement such as a counter).
type metric struct {
	Name, Unit string
	Value      float64
	Samples    int
	Note       string
}

// phase is one phase's failure accounting.
type phase struct {
	Name                         string
	Attempted, Succeeded, Failed int64
}

// bench is one run's state: options, the tracer (nil when untraced), and
// everything the run reports.
type bench struct {
	opt    options
	tr     *tracer
	e2e    []metric
	layers []metric
	// ungated are end-to-end figures printed for readers but not gated:
	// a p999 too thin to be steady, and fail_ratio, which is 0 on a
	// healthy run (BENCHMARK.json metrics must never be 0).
	ungated  []metric
	phases   []phase
	failures []string
	record   map[string]any
}

func (b *bench) traced() bool { return b.opt.trace }

// fail records a correctness failure: the run still reports, but with
// "correct": false and exit code 1.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", msg)
	}
	b.failures = append(b.failures, msg)
}

func (b *bench) addE2E(name, unit string, v float64, n int) {
	b.e2e = append(b.e2e, metric{Name: name, Unit: unit, Value: v, Samples: n})
}

func (b *bench) addLayer(name, unit string, v float64, n int, note string) {
	b.layers = append(b.layers, metric{Name: name, Unit: unit, Value: v, Samples: n, Note: note})
}

func (b *bench) addUngated(name, unit string, v float64, n int) {
	b.ungated = append(b.ungated, metric{Name: name, Unit: unit, Value: v, Samples: n})
}

func (b *bench) addPhase(p phase) {
	b.phases = append(b.phases, p)
	var attempted, failed int64
	for _, p := range b.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	b.record["fail_ratio"] = float64(failed) / float64(attempted)
}

var workloads = map[string]func(*bench) error{
	"serve_warm":        func(b *bench) error { return runServe(b, warmWorkload) },
	"serve_cold":        func(b *bench) error { return runServe(b, coldWorkload) },
	"sweep_adversarial": runSweep,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: serve_warm, serve_cold or sweep_adversarial")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory for the traced run's span file")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	b, err := run(o)
	if err != nil {
		fatal(err)
	}
	b.print(os.Stdout)
	if len(b.failures) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// run executes one workload and its checks. An error means the run could
// not be carried out at all (no result is printed); failed checks are
// recorded on the bench instead.
func run(o options) (*bench, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	b := &bench{opt: o, record: runRecord(o)}
	if o.trace {
		b.tr = newTracer()
	}
	b.record["calib.ed25519_sign_us"] = calibrate()
	if err := fn(b); err != nil {
		return nil, err
	}
	if o.trace {
		b.addLayer("calib.ed25519_sign_us", "us", b.record["calib.ed25519_sign_us"].(float64), calibRounds, "median of fixed sign loops")
		if err := b.tr.checkNesting(); err != nil {
			b.fail("span nesting: %v", err)
		}
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		b.record["trace_file"] = path
	}
	if err := b.checkNames(); err != nil {
		return nil, err
	}
	return b, nil
}

// checkNames pins the printed metric set to the declared one, so a
// workload can never silently drop a metric.
func (b *bench) checkNames() error {
	want, got := endToEndNames, b.e2e
	if b.traced() {
		want, got = layerNames(), b.layers
	}
	seen := make(map[string]bool)
	for _, m := range got {
		if seen[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, n := range want {
		if !seen[n] {
			return fmt.Errorf("metric %s not reported", n)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(seen), len(want))
	}
	return nil
}

func (b *bench) print(w *os.File) {
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%g trace=%v\n",
		b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace)
	rec, _ := json.Marshal(b.record) // plain data
	fmt.Fprintf(w, "record %s\n", rec)
	var attempted, failed int64
	for _, p := range b.phases {
		fmt.Fprintf(w, "phase %-14s attempted=%d succeeded=%d failed=%d\n", p.Name, p.Attempted, p.Succeeded, p.Failed)
		attempted += p.Attempted
		failed += p.Failed
	}
	printTable := func(label string, ms []metric) {
		for _, m := range ms {
			note := ""
			if m.Note != "" {
				note = "  (" + m.Note + ")"
			}
			fmt.Fprintf(w, "%s %-34s %14.6g %-6s n=%d%s\n", label, m.Name, m.Value, m.Unit, m.Samples, note)
		}
	}
	out := b.e2e
	if b.traced() {
		// The traced run's end-to-end figures minus the untraced run's
		// are the tracing overhead.
		printTable("e2e(traced)", b.e2e)
		printTable("layer", b.layers)
		out = b.layers
	} else {
		printTable("e2e", b.e2e)
	}
	printTable("ungated", append(b.ungated, metric{Name: "fail_ratio", Unit: "ratio",
		Value: float64(failed) / float64(max(attempted, 1)), Samples: int(attempted)}))
	for _, f := range b.failures {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out))
	for _, m := range out {
		metrics[m.Name] = value{Value: finite(m.Value), Unit: m.Unit}
	}
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(b.failures) == 0, attempted, failed, metrics})
	fmt.Fprintln(w, string(line))
}

// finite keeps the JSON encodable: a latency percentile that lands on a
// failed request (+Inf, "missed every limit") prints as 1e9 ms.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return 1e9
	case math.IsNaN(v), math.IsInf(v, -1):
		return -1
	}
	return v
}

// runRecord captures what tells two machines' numbers apart.
func runRecord(o options) map[string]any {
	unknown := func(v string) string {
		if v == "" {
			return "unknown"
		}
		return v
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     unknown(os.Getenv("E2EBENCH_COMMIT")),
		"source":     unknown(os.Getenv("E2EBENCH_SOURCE")),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
