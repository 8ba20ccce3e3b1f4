package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/transport"
)

const (
	// sweepSeeds is the seed count of one timed sweep (952 instances).
	sweepSeeds = 4
	// sweepWorkers is the in-process worker fleet, one per CPU here.
	sweepWorkers = 2
	// probeRate is the offered load, per second, of the served probe.
	probeRate = 200
)

// sweepEnv is the fdcampaign -coordinator shape in one process: a
// loopback TCP listener whose accepted worker connections are handed to
// the current sweep's coordinator, and sweepWorkers workers dialing it.
// Every coordinator-side connection is wrapped to time each lease from
// dispatch to its result.
type sweepEnv struct {
	ln       *transport.TCPConnListener
	accepted chan struct{}
	leases   leaseLog

	mu    sync.Mutex
	coord *sched.Coordinator

	// observer records the coordinator's own lease spans (traced runs).
	observer *obs.Recorder
	obsSink  *obs.MemorySink
	obsEpoch time.Time
	// obsMark is how many observer events precede the timed phase.
	obsMark int
}

func startSweepEnv(traced bool) (*sweepEnv, error) {
	ln, err := transport.ListenConn("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &sweepEnv{ln: ln, accepted: make(chan struct{})}
	if traced {
		e.obsSink = &obs.MemorySink{}
		e.obsEpoch = time.Now()
		e.observer = obs.NewRecorder(e.obsSink)
	}
	go e.acceptLoop()
	return e, nil
}

func (e *sweepEnv) acceptLoop() {
	defer close(e.accepted)
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		c := e.coord
		e.mu.Unlock()
		if c == nil {
			conn.Close()
			continue
		}
		go c.Attach(&leaseConn{Conn: conn, log: &e.leases})
	}
}

func (e *sweepEnv) close() {
	e.ln.Close()
	<-e.accepted
}

// sweep runs one campaign through a fresh coordinator and fleet, the way
// one `fdcampaign -coordinator` invocation does, and waits for the
// workers to be released.
func (e *sweepEnv) sweep(spec campaign.Spec) (*campaign.Report, sched.Outcome, error) {
	coord := sched.NewCoordinator(context.Background(), sched.Config{MinWorkers: sweepWorkers, Observer: e.observer})
	e.mu.Lock()
	e.coord = coord
	e.mu.Unlock()
	var wg sync.WaitGroup
	werrs := make([]error, sweepWorkers)
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.DialConn(e.ln.Addr())
			if err != nil {
				werrs[w] = err
				return
			}
			werrs[w] = sched.RunWorker(context.Background(), conn, sched.WorkerConfig{Name: fmt.Sprintf("worker-%d", w)})
		}()
	}
	rep, err := campaign.RunWith(spec, coord)
	wg.Wait()
	if err != nil {
		return nil, sched.Outcome{}, err
	}
	for _, werr := range werrs {
		if werr != nil {
			return nil, sched.Outcome{}, fmt.Errorf("worker: %w", werr)
		}
	}
	return rep, coord.Outcome(), nil
}

// leaseLog collects lease round trips as the coordinator sees them.
type leaseLog struct {
	mu     sync.Mutex
	rtts   []float64
	at     []time.Time // each round trip's end
	tr     *tracer
	parent int64
}

func (l *leaseLog) add(start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rtts = append(l.rtts, ms(end.Sub(start)))
	l.at = append(l.at, end)
	l.tr.add("sched.lease_rtt", l.parent, -1, "", start, end, "")
}

func (l *leaseLog) setParent(tr *tracer, id int64) {
	l.mu.Lock()
	l.tr, l.parent = tr, id
	l.mu.Unlock()
}

// leaseConn times each lease from the coordinator's send to the arrival
// of its result (or NACK). A worker holds one lease at a time, so one
// pending send time per connection suffices.
type leaseConn struct {
	transport.Conn
	log *leaseLog

	mu   sync.Mutex
	sent time.Time
}

func (c *leaseConn) Send(frame []byte) error {
	if sched.FrameKind(frame) == sched.KindLease {
		c.mu.Lock()
		c.sent = time.Now()
		c.mu.Unlock()
	}
	return c.Conn.Send(frame)
}

func (c *leaseConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err == nil {
		if k := sched.FrameKind(frame); k == sched.KindResult || k == sched.KindNack {
			now := time.Now()
			c.mu.Lock()
			sent := c.sent
			c.sent = time.Time{}
			c.mu.Unlock()
			if !sent.IsZero() {
				c.log.add(sent, now)
			}
		}
	}
	return frame, err
}

// checkSweep fails the run on any violation, errored instance or
// dead-lettered batch, and returns the report's canonical SHA-256.
func (b *bench) checkSweep(name string, rep *campaign.Report, out sched.Outcome) (hash string, failed int) {
	for _, r := range rep.Results {
		if r.Err != "" {
			failed++
			b.fail("%s: instance %d (%s) errored: %s", name, r.Index, r.Group, r.Err)
		} else if !r.Conformance.Conformant() {
			failed++
			b.fail("%s: instance %d (%s) violates %v", name, r.Index, r.Group, r.Conformance)
		}
	}
	if len(out.DLQ) > 0 {
		b.fail("%s: %d batch(es) dead-lettered", name, len(out.DLQ))
	}
	data, err := rep.CanonicalJSON()
	if err != nil {
		b.fail("%s: canonical report: %v", name, err)
		return "", failed
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), failed
}

func runSweep(b *bench) error {
	seed, traced := b.opt.seed, b.traced()
	scheme := defaultScheme(traced)
	spec := sweepSpec(seed, sweepSeeds, scheme)
	warm := sweepSpec(seed^0x5eed, 1, scheme)
	warm.SeedBase += 1 << 40 // key seeds the timed sweeps never use
	b.record["input_digest"] = digest("sweep_adversarial", spec, warm)

	// Set-up, repeated: listen, one coordinator and fleet joining, and
	// the named warm-up — one single-seed sweep of the grid.
	var setups []float64
	var env *sweepEnv
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		e, err := startSweepEnv(traced)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r, out, err := e.sweep(warm)
		if err != nil {
			e.close()
			return fmt.Errorf("setup warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.checkSweep("warm-up", r, out)
		if rep < setupReps-1 {
			e.close()
		} else {
			env = e
		}
	}
	defer env.close()
	b.record["setup_samples_s"] = setups
	env.leases.mu.Lock()
	env.leases.rtts, env.leases.at = nil, nil
	env.leases.mu.Unlock()
	if traced {
		_ = env.observer.Flush() // memory sink; cannot fail
		env.obsMark = len(env.obsSink.Events())
	}
	runtime.GC()

	deadline := time.Now().Add(time.Duration(b.opt.seconds * float64(time.Second)))
	sigBefore := sigCount.snapshot()
	heap := startHeapSampler(heapEvery)
	mon := startStealMonitor()
	before := readProc()
	var spans [][2]time.Time
	var sizes []int
	var instances, failed int
	var hash string
	var last *campaign.Report
	var stats []sched.Outcome
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		root := b.tr.reserve()
		env.leases.setParent(b.tr, root)
		t0 := time.Now()
		rep, out, err := env.sweep(spec)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("sweep %d: %w", iter, err)
		}
		b.tr.put(root, "loadgen.sweep", 0, iter, "", t0, t1, fmt.Sprintf("instances=%d", rep.Instances))
		h, f := b.checkSweep(fmt.Sprintf("sweep %d", iter), rep, out)
		if hash == "" {
			hash = h
		} else if h != hash {
			b.fail("sweep %d: canonical report hash %s differs from sweep 0's %s", iter, h, hash)
		}
		spans = append(spans, [2]time.Time{t0, t1})
		sizes = append(sizes, rep.Instances)
		instances += rep.Instances
		failed += f
		last = rep
		stats = append(stats, out)
	}
	after := readProc()
	mon.Stop()
	heapMB := heap.Stop()
	b.record["steal_share"] = mon.share(time.Time{}, time.Time{})
	b.addPhase(phase{Name: "sweeps", Attempted: int64(instances), Succeeded: int64(instances - failed), Failed: int64(failed)})
	b.record["sweeps"] = len(stats)
	b.record["instances_per_sweep"] = last.Instances
	b.record["report_sha256"] = hash

	env.leases.setParent(nil, 0)
	env.leases.mu.Lock()
	lat, at := env.leases.rtts, env.leases.at
	env.leases.mu.Unlock()
	b.addE2E("setup_s", "s", median(setups), len(setups))
	b.addLatency(timeWindows(at, lat), mon)
	// Each sweep is one window: the rate is the median over the calm
	// sweeps (see calmest).
	rates, steal := make([]float64, len(spans)), make([]float64, len(spans))
	for i, sp := range spans {
		rates[i] = float64(sizes[i]) / sp[1].Sub(sp[0]).Seconds()
		steal[i] = mon.share(sp[0], sp[1])
	}
	b.addE2E("inst_per_s", "1/s", calmMedian(rates, steal), instances)
	b.record["sweep_rates_per_s"] = rates
	b.record["sweep_steal"] = steal
	b.addE2E("cpu_ms_per_inst", "ms", ms(after.cpu-before.cpu)/float64(instances), instances)
	b.addE2E("allocs_per_inst", "count", float64(after.mallocs-before.mallocs)/float64(instances), instances)
	b.addHeap(heapMB)

	if !traced {
		return nil
	}
	trafficSig := sigCount.snapshot().minus(sigBefore)
	b.schedLayers(stats, env, "")
	counts := make([]traffic, len(last.Results))
	for i := range last.Results {
		counts[i] = trafficOf(&last.Results[i])
	}
	b.simLayers(counts)
	byKey := make(map[string]campaign.Result, len(last.Results))
	for _, r := range last.Results {
		byKey[fmt.Sprintf("%s#%d", r.Group, r.Seed)] = r
	}

	// The sweep bypasses the service: serve its honest, ideal-network
	// instances through an fdserve server as a probe, and require the
	// served results to match the swept ones.
	insts, err := campaign.Expand(spec)
	if err != nil {
		return err
	}
	var reqs []service.Request
	for _, inst := range insts {
		if inst.Adversary == campaign.AdvNone && inst.Net == nil {
			reqs = append(reqs, service.Request{Index: inst.Index, Protocol: inst.Protocol, N: inst.N, T: inst.T,
				Scheme: inst.Scheme, Seed: inst.Seed, KeySeed: inst.KeySeed})
		}
	}
	if err := b.servedProbe(reqs, func(inst campaign.Instance) campaign.Result {
		return last.Results[inst.Index]
	}); err != nil {
		return err
	}

	panel, err := campaign.Expand(sweepSpec(seed, 1, scheme))
	if err != nil {
		return err
	}
	b.replay(panel, func(inst campaign.Instance) (campaign.Result, bool) {
		r, ok := byKey[fmt.Sprintf("%s#%d", inst.GroupKey(), inst.Seed)]
		r.Index = inst.Index
		return r, ok
	})
	b.keydistProbe()
	b.sigLayers(trafficSig, sigCount.snapshot(), int64(instances))
	return nil
}

// schedLayers reports the scheduler's counters summed over the given
// sweeps and the coordinator's own lease spans.
func (b *bench) schedLayers(outs []sched.Outcome, env *sweepEnv, note string) {
	var leases, requeues, expired int
	for _, o := range outs {
		leases += o.Stats.LeasesIssued
		requeues += o.Stats.Requeues
		expired += o.Stats.LeasesExpired
	}
	_ = env.observer.Flush() // memory sink; cannot fail
	events := env.obsSink.Events()[env.obsMark:]
	var spans dist
	for _, e := range events {
		if e.Scope == "sched.lease" && e.Kind == obs.KindEnd {
			spans.add(float64(e.Dur) / 1e6)
		}
	}
	b.tr.adopt(events, env.obsEpoch)
	b.addLayer("sched.leases", "count", float64(leases), len(outs), note)
	b.addLayer("sched.requeues", "count", float64(requeues), len(outs), note)
	b.addLayer("sched.expired", "count", float64(expired), len(outs), note)
	b.addLayer("sched.lease_p50_ms", "ms", spans.pct(0.5), spans.n(), joinNote(note, "coordinator Observer spans"))
}

// schedProbe runs a spec through a fresh coordinator and fleet for the
// workloads whose path skips the scheduler, and returns its report.
func (b *bench) schedProbe(spec campaign.Spec) (*campaign.Report, error) {
	env, err := startSweepEnv(true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	root := b.tr.reserve()
	env.leases.setParent(b.tr, root)
	t0 := time.Now()
	rep, out, err := env.sweep(spec)
	if err != nil {
		return nil, err
	}
	b.tr.put(root, "loadgen.sweep", 0, -1, "", t0, time.Now(), "probe=sched")
	b.checkSweep("sched probe", rep, out)
	b.schedLayers([]sched.Outcome{out}, env, "probe: the panel grid through a coordinator")
	return rep, nil
}

// servedProbe serves requests open loop at probeRate through a fresh
// server for the workload whose path skips the service, checks every
// verdict, and requires each served result to equal want's.
func (b *bench) servedProbe(reqs []service.Request, want func(campaign.Instance) campaign.Result) error {
	env, err := startServe([]string{"probe-a", "probe-b"}, true)
	if err != nil {
		return err
	}
	defer env.close()
	arrivals := make([]arrival, len(reqs))
	at := 0.0
	for i, req := range reqs {
		at += -math.Log(unit(draw(b.opt.seed, streamProbe, uint64(i), 0))) / probeRate
		arrivals[i] = arrival{At: time.Duration(at * float64(time.Second)), Conn: i % 2, Req: req}
	}
	stop := sampleQueued(env.srv)
	var inflightMax maxGauge
	recs := env.openLoop(arrivals, 0, &inflightMax, 1)
	queuedMax := stop()
	completed, busy := b.account("served_probe", recs, int64(len(recs)))
	if completed == 0 {
		return fmt.Errorf("served probe: no request completed")
	}
	pool := env.srv.Snapshot().Pool
	note := "probe: the sweep's honest ideal-network instances served"
	b.serviceLayers(recs, completed, busy, lateness(recs), inflightMax.get(), queuedMax,
		pool.Hits, pool.Misses, pool.Cells, env.wire.Snapshot(), transport.ConnStatsSnapshot{}, note)
	b.differential("served probe", recs, len(recs), want)
	return nil
}
