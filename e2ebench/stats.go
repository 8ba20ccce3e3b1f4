package main

import (
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dist is an unsorted sample set; percentiles use the nearest-rank rule,
// so a reported p99 is always a value that was actually observed.
type dist struct{ vals []float64 }

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }

func (d *dist) n() int { return len(d.vals) }

// pct returns the nearest-rank p-quantile (0 < p ≤ 1), NaN when empty.
func (d *dist) pct(p float64) float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(d.vals) {
		sort.Float64s(d.vals)
	}
	i := int(math.Ceil(p*float64(len(d.vals)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.vals) {
		i = len(d.vals) - 1
	}
	return d.vals[i]
}

// beyond counts the samples strictly above the p-quantile: a percentile
// with few samples beyond it says little about the tail.
func (d *dist) beyond(p float64) int {
	q := d.pct(p)
	k := 0
	for _, v := range d.vals {
		if v > q {
			k++
		}
	}
	return k
}

// Timed phases are cut into windows: the serve workloads' slices (see
// slicePeriod), the sweep's sweeps, and consecutive windowSpan windows of
// the sweep's lease round trips. On a shared virtual machine the
// hypervisor steals CPU in bursts, and a burst inflates every latency and
// rate it overlaps. A figure therefore leaves out the most-stolen quarter
// of the windows: latency percentiles come from the pooled samples of the
// rest, rates are the median of theirs.
// The windows are chosen by the steal the machine reports, never by the
// figure itself, and every window's steal share is in the run record.
// Keeping three quarters, not fewer, keeps enough samples for a steady
// p99 when the machine is quiet.
const windowSpan = time.Second

// window is one slice of a timed phase: its time span and samples.
type window struct {
	from, to time.Time
	vals     []float64
}

// timeWindows cuts time-stamped samples (in time order) into windows of
// windowSpan; a tail shorter than half a span joins the window before it.
func timeWindows(at []time.Time, vals []float64) []window {
	var out []window
	var starts []int
	lo := 0
	for i := range vals {
		if at[i].Sub(at[lo]) >= windowSpan {
			out = append(out, window{from: at[lo], to: at[i-1], vals: vals[lo:i]})
			starts = append(starts, lo)
			lo = i
		}
	}
	if lo < len(vals) {
		last := len(vals) - 1
		if n := len(out); n > 0 && at[last].Sub(at[lo]) < windowSpan/2 {
			out[n-1] = window{from: out[n-1].from, to: at[last], vals: vals[starts[n-1]:]}
		} else {
			out = append(out, window{from: at[lo], to: at[last], vals: vals[lo:]})
		}
	}
	return out
}

// calmest returns the indices of the windows left after dropping the
// most-stolen quarter, in time order.
func calmest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:len(idx)-len(idx)/4]
	sort.Ints(idx)
	return idx
}

// calmMedian is the median of per-window values over the calm windows.
func calmMedian(vals, steal []float64) float64 {
	var calm []float64
	for _, i := range calmest(steal) {
		calm = append(calm, vals[i])
	}
	return median(calm)
}

// addLatency reports latency_p50_ms over the pooled samples of the calm
// windows (see calmest), prints the p99 and p999 ungated with their
// sample counts, and records every window's steal and median.
//
// The p99 is not gated: over 10 seeds its interquartile range exceeded
// a quarter of its median on every serve workload. On serve_cold the
// tail is set by garbage-collection cycles over the pool's growing heap,
// whose timing shifts from seed to seed; on serve_warm, by CPU steal.
func (b *bench) addLatency(wins []window, mon *stealMonitor) {
	steal := make([]float64, len(wins))
	p50s := make([]float64, len(wins))
	var samples []float64
	for i, w := range wins {
		steal[i] = mon.share(w.from, w.to)
		d := dist{vals: append([]float64(nil), w.vals...)}
		p50s[i] = d.pct(0.5)
		samples = append(samples, w.vals...)
	}
	var calm dist
	for _, i := range calmest(steal) {
		calm.vals = append(calm.vals, wins[i].vals...)
	}
	b.addE2E("latency_p50_ms", "ms", calm.pct(0.5), calm.n())
	b.addUngated("latency_p99_ms", "ms", finite(calm.pct(0.99)), calm.n())
	all := dist{vals: append([]float64(nil), samples...)}
	b.record["latency_windows_p50_ms"] = finiteAll(p50s)
	b.record["latency_windows_steal"] = steal
	b.record["latency_all_p50_ms"] = finite(all.pct(0.5))
	b.record["latency_all_p99_ms"] = finite(all.pct(0.99))
	b.record["latency_p99_beyond"] = calm.beyond(0.99)
	b.addUngated("latency_p999_ms", "ms", finite(all.pct(0.999)), all.n())
	b.record["latency_p999_beyond"] = all.beyond(0.999)
}

// stealMonitor samples the machine's CPU steal through a timed phase.
type stealMonitor struct {
	stop chan struct{}
	done chan struct{}
	at   []time.Time
	// steal and total are cumulative ticks at each sample.
	steal, total []uint64
}

const stealEvery = 50 * time.Millisecond

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	s, t := cpuTicks()
	m.at, m.steal, m.total = append(m.at, time.Now()), append(m.steal, s), append(m.total, t)
}

// Stop ends sampling; share may be called afterwards.
func (m *stealMonitor) Stop() {
	close(m.stop)
	<-m.done
}

// share is the stolen share of CPU time over the samples bracketing
// [from, to], or over the whole phase for the zero interval.
func (m *stealMonitor) share(from, to time.Time) float64 {
	lo, hi := 0, len(m.at)-1
	for lo+1 < len(m.at) && !m.at[lo+1].After(from) {
		lo++
	}
	for hi > lo+1 && m.at[hi-1].After(to) {
		hi--
	}
	if from.IsZero() {
		lo, hi = 0, len(m.at)-1
	}
	return stealShare(m.steal[lo], m.total[lo], m.steal[hi], m.total[hi])
}

func finiteAll(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = finite(v)
	}
	return out
}

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procCounters is the process-wide cost ledger read around a timed phase:
// user+sys CPU from getrusage and the runtime's cumulative malloc count.
type procCounters struct {
	cpu     time.Duration
	mallocs uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
	}
}

// heapEvery is the heap sampling interval: short enough to catch the top
// of most GC cycles.
const heapEvery = 5 * time.Millisecond

// heapSampler records HeapInuse (heap objects plus the unused tail of
// in-use spans) by polling runtime/metrics, which unlike ReadMemStats
// does not stop the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples dist // MB
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() { h.samples.add(float64(heapInuse()) / (1 << 20)) }

// Stop ends sampling and returns the samples in MB.
func (h *heapSampler) Stop() *dist {
	close(h.stop)
	<-h.done
	h.sample()
	return &h.samples
}

// addHeap reports heap_peak_mb as the 99th percentile of the HeapInuse
// samples, and records their maximum. The maximum is the overshoot of
// one GC cycle whose mark phase ran late, and it moved by ±20% from run
// to run on the sweep; the 99th percentile leaves out the highest 1% of
// the time and still tracks serve_cold's growing heap to its end.
func (b *bench) addHeap(samples *dist) {
	b.addE2E("heap_peak_mb", "MB", samples.pct(0.99), samples.n())
	b.record["heap_max_mb"] = samples.pct(1)
}

func heapInuse() uint64 {
	s := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// cpuTicks reads the machine's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable). Steal is time the
// hypervisor ran someone else on this machine's CPUs.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of the machine's CPU time stolen between two
// cpuTicks readings.
func stealShare(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// maxGauge is a concurrency-safe running maximum.
type maxGauge struct {
	mu  sync.Mutex
	max int64
}

func (g *maxGauge) observe(v int64) {
	g.mu.Lock()
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

func (g *maxGauge) get() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}
