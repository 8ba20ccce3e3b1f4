package main

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Per-layer measurement for the traced run. Every layer is measured from
// outside, by timing the benchmark's calls into its public functions.
// When a workload's own path skips a layer, that layer's figures come
// from a probe over the workload's own instances (see README.md), and
// the printed table says so.

// serviceLayers derives the loadgen, transport and service figures from
// a phase's client-side records, and records each request's spans:
// loadgen.request (due → reply) ⊃ service.rtt (the Do call) ⊃
// service.queue, service.run (from the Reply fields).
func (b *bench) serviceLayers(recs []reqRec, completed, busy int64, late *dist, inflightMax, queuedMax int64,
	hits, misses int64, cells int, wire, wireBefore transport.ConnStatsSnapshot, note string) {
	var rtt, queue, run, overhead dist
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		d := r.done.Sub(r.sent)
		q := time.Duration(r.queueNS)
		x := time.Duration(r.runNS)
		o := d - q - x
		if o < 0 {
			b.fail("request %d: queue %v + run %v exceed the client's round trip %v", r.req.Index, q, x, d)
		}
		rtt.add(ms(d))
		queue.add(ms(q))
		run.add(ms(x))
		overhead.add(ms(o))
		if b.tr != nil {
			root := b.tr.add("loadgen.request", 0, r.req.Index, r.req.Protocol, r.due, r.done,
				fmt.Sprintf("n=%d source=%s", r.req.N, r.source))
			call := b.tr.add("service.rtt", root, r.req.Index, r.req.Protocol, r.sent, r.done, "")
			qs := r.sent.Add(o / 2)
			b.tr.add("service.queue", call, r.req.Index, r.req.Protocol, qs, qs.Add(q), "")
			b.tr.add("service.run", call, r.req.Index, r.req.Protocol, qs.Add(q), qs.Add(q+x), "")
		}
	}
	b.addLayer("loadgen.late_p99_ms", "ms", late.pct(0.99), late.n(), note)
	b.addLayer("loadgen.inflight_max", "count", float64(inflightMax), late.n(), note)
	frames := (wire.FramesSent - wireBefore.FramesSent) + (wire.FramesRecv - wireBefore.FramesRecv)
	bytes := (wire.BytesSent - wireBefore.BytesSent) + (wire.BytesRecv - wireBefore.BytesRecv)
	b.addLayer("transport.bytes_per_inst", "B", float64(bytes)/float64(completed), int(completed), note)
	b.addLayer("transport.frames_per_inst", "count", float64(frames)/float64(completed), int(completed), note)
	for _, l := range []struct {
		name string
		d    *dist
	}{{"overhead", &overhead}, {"rtt", &rtt}, {"queue", &queue}, {"run", &run}} {
		b.addLayer("service."+l.name+"_p50_ms", "ms", l.d.pct(0.5), l.d.n(), note)
		b.addLayer("service."+l.name+"_p99_ms", "ms", l.d.pct(0.99), l.d.n(), note)
	}
	b.addLayer("service.queued_max", "count", float64(queuedMax), 0, note)
	b.addLayer("service.busy_rejects", "count", float64(busy), 0, note)
	ratio := math.NaN()
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	b.addLayer("service.pool_hit_ratio", "ratio", ratio, int(hits+misses),
		joinNote(note, fmt.Sprintf("base: %d checkouts", hits+misses)))
	b.addLayer("service.pool_cells", "count", float64(cells), 0, note)
}

func joinNote(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// simLayers reports the exact per-instance traffic counts the results
// carry.
func (b *bench) simLayers(results []traffic) {
	var rounds, msgs, bytes, signed float64
	for _, r := range results {
		rounds += float64(r.rounds)
		msgs += float64(r.messages)
		bytes += float64(r.bytes)
		signed += float64(r.signed)
	}
	n := float64(len(results))
	b.addLayer("sim.rounds_per_inst", "count", rounds/n, len(results), "")
	b.addLayer("sim.messages_per_inst", "count", msgs/n, len(results), "")
	b.addLayer("sim.bytes_per_inst", "B", bytes/n, len(results), "")
	b.addLayer("sim.signed_messages_per_inst", "count", signed/n, len(results), "")
}

// sigLayers reports the counting scheme's calls per completed instance
// over the workload's traffic, and the mean time per call over the whole
// traced run (traffic and probes), so the mean exists even where the
// traffic made no call of a kind.
func (b *bench) sigLayers(traffic, whole sigSnapshot, completed int64) {
	per := func(v int64) float64 { return float64(v) / float64(completed) }
	us := func(ns, calls int64) float64 {
		if calls == 0 {
			return math.NaN()
		}
		return float64(ns) / float64(calls) / 1e3
	}
	b.addLayer("sig.keygen_per_inst", "count", per(traffic.keygens), int(completed), "")
	b.addLayer("sig.keygen_us", "us", us(whole.keygenNS, whole.keygens), int(whole.keygens), "whole traced run")
	b.addLayer("sig.sign_per_inst", "count", per(traffic.signs), int(completed), "")
	b.addLayer("sig.sign_us", "us", us(whole.signNS, whole.signs), int(whole.signs), "whole traced run")
	b.addLayer("sig.test_per_inst", "count", per(traffic.tests), int(completed), "memo misses")
	b.addLayer("sig.test_us", "us", us(whole.testNS, whole.tests), int(whole.tests), "whole traced run")
}

// keydistProbe times core.New + EstablishAuthentication at every system
// size the workloads use and checks the handshake's 3n(n−1) messages.
func (b *bench) keydistProbe() {
	const reps = 3
	var msgs []float64
	for _, size := range keydistSizes {
		var times []float64
		got := 0
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			c, err := core.New(model.Config{N: size.n, T: size.t}, core.WithScheme(countedScheme),
				core.WithSeed(b.opt.seed+int64(r)), core.WithKeySeed(b.opt.seed*7919+int64(r)))
			if err != nil {
				b.fail("keydist n=%d: %v", size.n, err)
				return
			}
			t1 := time.Now()
			rep, err := c.EstablishAuthentication()
			t2 := time.Now()
			if err != nil {
				b.fail("keydist n=%d: %v", size.n, err)
				return
			}
			root := b.tr.add("keydist.setup", 0, -1, "keydist", t0, t2, fmt.Sprintf("n=%d", size.n))
			b.tr.add("core.new", root, -1, "keydist", t0, t1, "")
			b.tr.add("core.establish", root, -1, "keydist", t1, t2, "")
			times = append(times, ms(t2.Sub(t0)))
			got = rep.Snapshot.Messages
			if want := 3 * size.n * (size.n - 1); got != want {
				b.fail("keydist n=%d: handshake sent %d messages, want 3n(n-1) = %d", size.n, got, want)
			}
		}
		b.addLayer(fmt.Sprintf("keydist.handshake_ms.n%d", size.n), "ms", median(times), reps, "")
		msgs = append(msgs, float64(got))
	}
	for i, size := range keydistSizes {
		b.addLayer(fmt.Sprintf("keydist.messages_per_setup.n%d", size.n), "count", msgs[i], reps, "")
	}
}

// cell is a setup-cache cell of the replay pass.
type cell struct {
	scheme  string
	n, t    int
	keySeed int64
}

// replayReps is how many times the replay pass times each instance on
// each path; it keeps the fastest, which sheds GC pauses and scheduler
// noise.
const replayReps = 3

// replayTolerance is how far the split path may exceed the whole path,
// per instance at the median. The whole path does strictly more work, but
// only by the scoring step (about 1% of exec), which is inside the
// machine's timing noise; the median keeps a CPU-steal burst on a few
// long instances from deciding the check.
const replayTolerance = 0.05

// replay re-executes instances through the layers below the service.
// A first, split pass — the driver's Prepare then Run, with one
// SetupCache per cell — records which prepares hit the cache and what a
// hit or a miss costs. Then each instance runs replayReps times both
// whole, through campaign.RunInstanceWith, and split, alternating which
// goes first, over the now warm caches and verify memo; exec, prepare
// and run are the fastest of those. ref, when non-nil, supplies results
// the whole path must reproduce byte for byte.
func (b *bench) replay(insts []campaign.Instance, ref func(campaign.Instance) (campaign.Result, bool)) {
	execCaches := make(map[cell]*protocol.SetupCache)
	splitCaches := make(map[cell]*protocol.SetupCache)
	execBy := make(map[string]*dist)
	runBy := make(map[string]*dist)
	var prepHit, prepMiss, score, eig, ratio dist
	var sumExec, sumSplit float64
	runOf := make(map[string]float64) // twin key → run ms, for the ratios
	for _, inst := range insts {
		k := cell{inst.Scheme, inst.N, inst.T, inst.KeySeed}
		if execCaches[k] == nil {
			execCaches[k], splitCaches[k] = protocol.NewSetupCache(0), protocol.NewSetupCache(0)
		}
		drv, err := protocol.Lookup(inst.Protocol)
		if err != nil {
			b.fail("replay: %v", err)
			return
		}
		pinst, err := protocolInstance(inst)
		if err != nil {
			b.fail("replay: %v", err)
			return
		}
		var sc *protocol.SetupCache
		if drv.Capabilities().CacheableSetup {
			sc = splitCaches[k]
		}
		split := func() (start, prepared, end time.Time, hit bool) {
			var hits0 int
			if sc != nil {
				hits0, _ = sc.Stats()
			}
			start = time.Now()
			setup, err := drv.Prepare(pinst, sc)
			prepared = time.Now()
			if err == nil {
				_, err = drv.Run(pinst, setup)
			}
			end = time.Now()
			if err != nil {
				b.fail("replay %s seed %d: split run: %v", inst.GroupKey(), inst.Seed, err)
			}
			if sc != nil {
				hits1, _ := sc.Stats()
				hit = hits1 > hits0
			}
			return start, prepared, end, hit
		}
		whole := func() (start, end time.Time, res campaign.Result) {
			start = time.Now()
			res = campaign.RunInstanceWith(inst, execCaches[k])
			return start, time.Now(), res
		}

		first, prepared, ran, hit := split()
		if sc != nil {
			if hit {
				prepHit.add(ms(prepared.Sub(first)))
			} else {
				prepMiss.add(ms(prepared.Sub(first)))
			}
		}
		root := b.tr.reserve()
		b.tr.add("protocol.prepare", root, inst.Index, inst.Protocol, first, prepared, fmt.Sprintf("hit=%v", hit))
		b.tr.add("protocol.run", root, inst.Index, inst.Protocol, prepared, ran, "")
		minExec, minPrep, minRun := math.Inf(1), math.Inf(1), math.Inf(1)
		for r := 0; r < 2*replayReps; r++ {
			if (r+inst.Index)%2 == 0 {
				s, e, res := whole()
				minExec = math.Min(minExec, ms(e.Sub(s)))
				if r < 2 {
					b.tr.add("campaign.exec", root, inst.Index, inst.Protocol, s, e, "")
					b.checkReplayed(inst, res, ref)
				}
			} else {
				s, p, e, _ := split()
				minPrep = math.Min(minPrep, ms(p.Sub(s)))
				minRun = math.Min(minRun, ms(e.Sub(p)))
			}
		}
		b.tr.put(root, "loadgen.replay", 0, inst.Index, inst.Protocol, first, time.Now(), "group="+inst.GroupKey())

		// The whole path does everything the split path does, plus
		// scoring, so its fastest time bounds theirs from above, up to
		// timing noise.
		sumExec += minExec
		sumSplit += minPrep + minRun
		ratio.add((minPrep + minRun) / minExec)
		if execBy[inst.Protocol] == nil {
			execBy[inst.Protocol], runBy[inst.Protocol] = &dist{}, &dist{}
		}
		execBy[inst.Protocol].add(minExec)
		runBy[inst.Protocol].add(minRun)
		score.add(minExec - minPrep - minRun)
		if inst.Protocol == campaign.ProtoEIG && inst.N == 16 && inst.T == 3 {
			eig.add(minRun)
		}
		runOf[twinKey(inst, inst.Adversary, inst.NetCond)] = minRun
	}
	if r := ratio.pct(0.5); r > 1+replayTolerance {
		b.fail("replay: prepare + run is %.3f× exec at the median over %d instances, more than %.2f×",
			r, ratio.n(), 1+replayTolerance)
	}
	b.record["replay_split_over_exec_p50"] = ratio.pct(0.5)
	b.record["replay_exec_ms_total"] = sumExec
	b.record["replay_prepare_run_ms_total"] = sumSplit
	for _, p := range sweepProtocols {
		d := execBy[p]
		if d == nil {
			d = &dist{}
		}
		b.addLayer("campaign.exec_ms."+p, "ms", d.pct(0.5), d.n(), "p50 of best-of-3")
	}
	b.addLayer("campaign.score_ms_p50", "ms", score.pct(0.5), score.n(), "exec - prepare - run")
	b.addLayer("protocol.prepare_ms.hit", "ms", prepHit.pct(0.5), prepHit.n(), "p50, first pass")
	b.addLayer("protocol.prepare_ms.miss", "ms", prepMiss.pct(0.5), prepMiss.n(), "p50, first pass")
	b.addLayer("protocol.setup_hit_ratio", "ratio", float64(prepHit.n())/float64(prepHit.n()+prepMiss.n()),
		prepHit.n()+prepMiss.n(), fmt.Sprintf("base: %d cacheable prepares", prepHit.n()+prepMiss.n()))
	for _, p := range sweepProtocols {
		d := runBy[p]
		if d == nil {
			d = &dist{}
		}
		b.addLayer("protocol.run_ms."+p, "ms", d.pct(0.5), d.n(), "p50 of best-of-3")
	}
	b.addLayer("ba.eig_run_ms.n16_t3", "ms", eig.pct(0.5), eig.n(), "p50 of best-of-3")

	// Degraded over ideal network, and byzantine over honest, each
	// against its twin instance that differs only in that axis.
	var netNum, netDen, advNum, advDen float64
	var netPairs, advPairs int
	for _, inst := range insts {
		run := runOf[twinKey(inst, inst.Adversary, inst.NetCond)]
		if inst.NetCond != "" {
			if twin, ok := runOf[twinKey(inst, inst.Adversary, "")]; ok {
				netNum, netDen, netPairs = netNum+run, netDen+twin, netPairs+1
			}
		}
		if inst.Adversary != campaign.AdvNone {
			if twin, ok := runOf[twinKey(inst, campaign.AdvNone, inst.NetCond)]; ok {
				advNum, advDen, advPairs = advNum+run, advDen+twin, advPairs+1
			}
		}
	}
	b.addLayer("netcond.run_ms_ratio", "ratio", netNum/netDen, netPairs, fmt.Sprintf("base: %d twin pairs", netPairs))
	b.addLayer("adversary.run_ms_ratio", "ratio", advNum/advDen, advPairs, fmt.Sprintf("base: %d twin pairs", advPairs))
}

// checkReplayed fails the run when a replayed result errored, is not
// conformant, or differs from the workload's own result.
func (b *bench) checkReplayed(inst campaign.Instance, res campaign.Result, ref func(campaign.Instance) (campaign.Result, bool)) {
	if res.Err != "" || !res.Conformance.Conformant() {
		b.fail("replay %s seed %d: errored or non-conformant (err=%q)", inst.GroupKey(), inst.Seed, res.Err)
	}
	if ref == nil {
		return
	}
	if want, ok := ref(inst); ok {
		got, _ := json.Marshal(res)
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			b.fail("replay %s seed %d: result differs from the workload's:\n replay   %s\n workload %s",
				inst.GroupKey(), inst.Seed, got, exp)
		}
	}
}

// twinKey names an instance with its adversary and network condition
// replaced, so instances differing only in that axis can be paired.
func twinKey(inst campaign.Instance, adv, net string) string {
	return fmt.Sprintf("%s/%d/%d/%s/%s/%s/%d/%d", inst.Protocol, inst.N, inst.T, inst.Scheme, adv, net, inst.Seed, inst.KeySeed)
}

// protocolInstance resolves a campaign instance into the driver-level
// instance campaign.RunInstance would run.
func protocolInstance(inst campaign.Instance) (protocol.Instance, error) {
	strat := inst.Strategy
	if strat.Name == "" && inst.Adversary != "" {
		var err error
		if strat, err = campaign.ParseAdversary(inst.Adversary); err != nil {
			return protocol.Instance{}, err
		}
	}
	return protocol.Instance{N: inst.N, T: inst.T, Scheme: inst.Scheme, Value: inst.Value,
		Strategy: strat, Net: inst.Net, Seed: inst.Seed, KeySeed: inst.KeySeed}, nil
}

// calibRounds × calibSigns ed25519 signatures make the calibration loop:
// a fixed piece of work whose time tracks the machine, not the program.
const (
	calibRounds = 5
	calibSigns  = 400
)

// calibrate returns the median per-signature time, in µs, of a fixed
// ed25519 sign loop.
func calibrate() float64 {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 64)
	var per []float64
	for r := 0; r < calibRounds; r++ {
		t0 := time.Now()
		for i := 0; i < calibSigns; i++ {
			msg[0] = byte(i)
			_ = ed25519.Sign(priv, msg)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/calibSigns/1e3)
	}
	return median(per)
}
