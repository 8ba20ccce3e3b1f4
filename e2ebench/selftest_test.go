package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sig"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSelfTest runs every workload at a short length, untraced and
// traced, and checks that every check passes, every declared metric is
// reported with its declared unit and a finite value, the span file
// renders, and spans nest (run fails the bench otherwise).
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %s, which the benchmark lacks", w.Name)
		}
	}
	// Every workload runs here, serve_warm too, although BENCHMARK.json
	// does not gate it.
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			b, err := run(options{workload: name, seed: 7, seconds: 1, trace: traced, traceDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(b.failures) > 0 {
				t.Fatalf("%s trace=%v: checks failed: %v", name, traced, b.failures)
			}
			want, got := f.EndToEnd, b.e2e
			if traced {
				want, got = f.PerLayer, b.layers
			}
			units := make(map[string]string)
			for _, m := range got {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, traced, m.Name, m.Value)
				}
				units[m.Name] = m.Unit
			}
			for _, m := range want {
				if u, ok := units[m.Name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: %s reported with unit %q, declared %q", name, traced, m.Name, u, m.Unit)
				}
			}
			if !traced {
				continue
			}
			events, err := report.LoadTrace(b.record["trace_file"].(string))
			if err != nil {
				t.Fatal(err)
			}
			scopes := make(map[string]bool)
			for _, s := range report.AggregateTrace(events) {
				scopes[s.Scope] = true
			}
			for _, s := range []string{"loadgen.request", "service.rtt", "service.queue", "service.run",
				"loadgen.sweep", "sched.lease", "loadgen.replay", "campaign.exec", "protocol.prepare",
				"protocol.run", "keydist.setup"} {
				if !scopes[s] {
					t.Errorf("%s: span file has no %s spans", name, s)
				}
			}
		}
	}
}

// TestCountingSchemeMatchesEd25519 pins the traced run's wrapper to the
// exact ed25519 keys and signatures.
func TestCountingSchemeMatchesEd25519(t *testing.T) {
	base, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := sig.ByName(countedScheme)
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{7}, 64)
	s1, err := base.Generate(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	before := sigCount.snapshot()
	s2, err := counted.Generate(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Predicate().Bytes(), s2.Predicate().Bytes()) {
		t.Fatal("wrapped key differs from ed25519's")
	}
	msg := []byte("payload")
	sig1, _ := s1.Sign(msg)
	sig2, _ := s2.Sign(msg)
	if !bytes.Equal(sig1, sig2) {
		t.Fatal("wrapped signature differs from ed25519's")
	}
	pred, err := counted.ParsePredicate(s1.Predicate().Bytes())
	if err != nil || !pred.Test(msg, sig1) || pred.Test([]byte("other"), sig1) {
		t.Fatalf("wrapped predicate: err=%v", err)
	}
	d := sigCount.snapshot().minus(before)
	if d.keygens != 1 || d.signs != 1 || d.tests != 2 {
		t.Fatalf("counted keygen/sign/test = %d/%d/%d, want 1/1/2", d.keygens, d.signs, d.tests)
	}
}

// TestInputsDependOnlyOnSeed checks the generators are pure functions of
// the seed.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range []serveWorkload{warmWorkload, coldWorkload} {
		a := poisson(3, w.rate, time.Second, 2, w.gen(3, sig.SchemeEd25519))
		b := poisson(3, w.rate, time.Second, 2, w.gen(3, sig.SchemeEd25519))
		c := poisson(4, w.rate, time.Second, 2, w.gen(4, sig.SchemeEd25519))
		if digest(a) != digest(b) || digest(a) == digest(c) {
			t.Errorf("%s: inputs are not a pure function of the seed", w.name)
		}
	}
	if digest(sweepSpec(3, 1, "")) == digest(sweepSpec(4, 1, "")) {
		t.Error("sweep spec ignores the seed")
	}
}

// TestWindows checks the window cutting and the steal-conditioned
// choice of windows.
func TestWindows(t *testing.T) {
	t0 := time.Now()
	var at []time.Time
	var vals []float64
	for i := 0; i < 5000; i++ { // 5.2 spans: the short tail joins the fifth window
		at = append(at, t0.Add(time.Duration(i)*windowSpan*52/50000))
		vals = append(vals, float64(i))
	}
	wins := timeWindows(at, vals)
	if len(wins) != 5 || len(wins[4].vals) <= len(wins[0].vals) {
		t.Fatalf("cut 5.2 spans into %d windows, want 5 with the tail in the last", len(wins))
	}
	n := 0
	for _, w := range wins {
		n += len(w.vals)
	}
	if n != len(vals) {
		t.Errorf("windows hold %d samples, want %d", n, len(vals))
	}
	if got := calmest([]float64{0.3, 0.01, 0.2, 0.0, 0.5, 0.1, 0.1, 0.1}); len(got) != 6 || got[0] != 1 || got[5] != 7 {
		t.Errorf("calmest = %v, want all but the two most stolen, [1 2 3 5 6 7]", got)
	}
	m := &stealMonitor{at: []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second)},
		steal: []uint64{0, 10, 10}, total: []uint64{0, 200, 400}}
	if s := m.share(t0.Add(time.Second), t0.Add(2*time.Second)); s != 0 {
		t.Errorf("steal over the calm second = %v, want 0", s)
	}
	if s := m.share(time.Time{}, time.Time{}); s != 0.025 {
		t.Errorf("steal over the phase = %v, want 0.025", s)
	}
}
