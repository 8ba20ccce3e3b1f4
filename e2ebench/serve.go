package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/transport"
)

// serveWorkload is one fdserve traffic mix.
type serveWorkload struct {
	name string
	// rate is the open-loop offered load in requests per second, fixed
	// so that two commits are always compared at the same load.
	rate float64
	// openShare is the open-loop share of each slice period; the
	// closed-loop saturation slice takes the rest.
	openShare float64
	tenants   []string
	gen       func(seed int64, scheme string) requestGen
	// warmup names the set-up requests, sent concurrently per connection
	// (rep numbers the set-up repetition).
	warmup func(seed int64, scheme string, rep int) [][]service.Request
}

var (
	warmWorkload = serveWorkload{
		name: "serve_warm", rate: 2000, openShare: 0.6, tenants: warmTenants,
		gen: warmGen, warmup: warmWarmup,
	}
	coldWorkload = serveWorkload{
		name: "serve_cold", rate: 100, openShare: 0.6, tenants: []string{"cold-a", "cold-b"},
		gen: coldGen, warmup: coldWarmup,
	}
)

const (
	// setupReps is how many times each run sets up; setup_s is the median.
	setupReps = 9
	// slicePeriod is the target length of one open-loop slice plus one
	// saturation slice. Interleaving the two phases in short slices
	// spreads each over the whole run, so a burst of CPU steal or a slow
	// stretch of the machine touches a few slices of each phase instead
	// of the whole of one.
	slicePeriod = 2500 * time.Millisecond
	// satPerConn is the saturation phase's outstanding requests per
	// connection (2 connections × 4).
	satPerConn = 4
	// diffSamples bounds the served results re-run one-shot after the
	// timed phase.
	diffSamples = 16
)

// serveEnv is one in-process fdserve server on loopback TCP with one
// client connection per tenant.
type serveEnv struct {
	srv     *service.Server
	ln      *transport.TCPConnListener
	served  chan error
	clients []*service.Client
	// wire counts the client connections' frames and bytes (traced runs).
	wire transport.ConnStats
}

// startServe starts a server with fdserve's default configuration,
// listens, dials one connection per tenant and completes each hello.
func startServe(tenants []string, count bool) (*serveEnv, error) {
	ln, err := transport.ListenConn("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{srv: service.NewServer(service.Config{}), ln: ln, served: make(chan error, 1)}
	go func() { e.served <- e.srv.Serve(ln) }()
	for _, tenant := range tenants {
		conn, err := transport.DialConn(ln.Addr())
		if err != nil {
			e.close()
			return nil, err
		}
		if count {
			conn = transport.CountConn(conn, &e.wire)
		}
		c, err := service.NewClient(conn, tenant)
		if err != nil {
			conn.Close()
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// close drains the server, hangs up every client and stops the acceptor,
// waiting for the accept loop to return.
func (e *serveEnv) close() {
	e.srv.Drain()
	for _, c := range e.clients {
		c.Close()
	}
	e.ln.Close()
	<-e.served
}

// doAll sends every request, each connection's list concurrently, and
// fails on the first error or non-conformant verdict.
func (e *serveEnv) doAll(reqs [][]service.Request) error {
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for conn, list := range reqs {
		for _, req := range list {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reply, err := e.clients[conn].Do(req)
				if err == nil && !servedOK(reply) {
					err = fmt.Errorf("warm-up request %+v: errored or non-conformant verdict", req)
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}()
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func servedOK(r *service.Reply) bool {
	return r.Result.Err == "" && r.Result.Conformance != nil && r.Result.Conformance.Conformant()
}

// reqRec is one request's client-side record. due is when the schedule
// said to send it (the send time in a closed loop); sent and done
// bracket the Do call. The reply is reduced to what the report needs as
// it arrives, so the benchmark's own heap stays small; the full result
// is kept only for the differential sample.
type reqRec struct {
	req             service.Request
	due, sent, done time.Time
	err             error
	queueNS, runNS  int64
	source          string
	traffic         traffic
	// verdict is empty for an error-free, conformant result answering
	// this request, and says what was wrong otherwise.
	verdict string
	result  *campaign.Result
}

// traffic is one instance's exact protocol-phase counts.
type traffic struct{ rounds, messages, bytes, signed int }

func trafficOf(r *campaign.Result) traffic {
	return traffic{r.Rounds, r.Messages, r.Bytes, r.SignedMessages}
}

// diffEvery keeps the full result of every diffEvery-th request of a
// stream for the differential check.
const diffEvery = 64

func (r *reqRec) finish(reply *service.Reply, err error, keepEvery int) {
	r.done = time.Now()
	r.err = err
	if err != nil {
		return
	}
	res := &reply.Result
	r.queueNS, r.runNS, r.source, r.traffic = reply.QueueNS, reply.RunNS, reply.Source, trafficOf(res)
	switch {
	case res.Index != r.req.Index:
		r.verdict = fmt.Sprintf("answered with result %d", res.Index)
	case !servedOK(reply):
		r.verdict = fmt.Sprintf("errored or non-conformant verdict (err=%q)", res.Err)
	}
	if r.verdict != "" || (r.req.Index&0xffffffff)%keepEvery == 0 {
		r.result = res
	}
}

func (r *reqRec) ok() bool { return r.err == nil && r.verdict == "" }

// openLoop sends each arrival at its due time, shift before a.At after
// the call, regardless of how earlier requests fared, so a stall shows up
// as latency of the requests behind it (no coordinated omission). It
// returns when every reply is in.
func (e *serveEnv) openLoop(arrivals []arrival, shift time.Duration, inflightMax *maxGauge, keepEvery int) []reqRec {
	recs := make([]reqRec, len(arrivals))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i := range arrivals {
		a := &arrivals[i]
		due := start.Add(a.At - shift)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &recs[i]
		r.req, r.due = a.Req, due
		inflightMax.observe(inflight.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sent = time.Now()
			reply, err := e.clients[a.Conn].Do(r.req)
			r.finish(reply, err, keepEvery)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	return recs
}

// satResult is a saturation slice's outcome. Only requests the report
// needs are kept as records — failures, the differential sample, and
// everything when keepAll (traced runs) — so an untraced run's heap
// holds the system's memory, not the benchmark's.
type satResult struct {
	kept      []reqRec
	attempted int64
	// rate is the successful completions per second before the slice's
	// end; the drain after it is left out.
	rate float64
}

// closedLoop keeps perConn requests outstanding on every connection
// until dur has passed, then lets the last ones finish. Worker w draws
// its requests from index next[w] on and leaves there the index after
// its last, so successive slices never repeat a request.
func (e *serveEnv) closedLoop(gen requestGen, dur time.Duration, perConn int, keepAll bool, next []uint64) satResult {
	start := time.Now()
	deadline := start.Add(dur)
	workers := len(e.clients) * perConn
	kept := make([][]reqRec, workers)
	done := make([]int64, workers)
	inWindow := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := w / perConn
			stream := streamSat<<8 | uint64(w)
			i := next[w]
			for ; time.Now().Before(deadline); i++ {
				r := reqRec{req: gen(stream, i, conn)}
				r.sent = time.Now()
				r.due = r.sent
				reply, err := e.clients[conn].Do(r.req)
				r.finish(reply, err, diffEvery)
				if r.ok() {
					done[w]++
					if r.done.Before(deadline) {
						inWindow[w]++
					}
				}
				if keepAll || !r.ok() || r.result != nil {
					kept[w] = append(kept[w], r)
				}
			}
			next[w] = i
		}()
	}
	wg.Wait()
	var out satResult
	var completed int64
	for w := range kept {
		out.kept = append(out.kept, kept[w]...)
		out.attempted += done[w]
		completed += inWindow[w]
	}
	for _, r := range out.kept {
		if !r.ok() {
			out.attempted++
		}
	}
	out.rate = float64(completed) / dur.Seconds()
	return out
}

// account checks and counts one phase's records. Transport errors and
// rejections count as failed; an errored run, a non-conformant verdict
// or a reply routed to the wrong request also fails the run.
//
// recs must hold every failed request; attempted requests missing from
// recs succeeded.
func (b *bench) account(name string, recs []reqRec, attempted int64) (succeeded int64, busy int64) {
	p := phase{Name: name, Attempted: attempted}
	for i := range recs {
		r := &recs[i]
		var rej *service.RejectError
		switch {
		case errors.As(r.err, &rej):
			p.Failed++
			if rej.Code == service.RejectBusy {
				busy++
			}
		case r.err != nil:
			p.Failed++
			b.fail("%s: request %d: %v", name, r.req.Index, r.err)
		case r.verdict != "":
			p.Failed++
			b.fail("%s: request %d (%s n=%d): %s", name, r.req.Index, r.req.Protocol, r.req.N, r.verdict)
		}
	}
	p.Succeeded = p.Attempted - p.Failed
	b.addPhase(p)
	return p.Succeeded, busy
}

// instanceOf maps a served request onto the campaign instance the
// service runs for it.
func instanceOf(req service.Request) campaign.Instance {
	scheme := req.Scheme
	if drv, err := protocol.Lookup(req.Protocol); err == nil && !drv.Capabilities().UsesSignatures {
		scheme = ""
	}
	return campaign.Instance{Index: req.Index, Protocol: req.Protocol, N: req.N, T: req.T,
		Scheme: scheme, Adversary: campaign.AdvNone, Seed: req.Seed, KeySeed: req.KeySeed, Value: req.Value}
}

// differential compares an evenly spread sample of at most limit served
// results with want's result for the same instance (a one-shot
// campaign.RunInstance, or the swept result) and requires byte-identical
// JSON.
func (b *bench) differential(name string, recs []reqRec, limit int, want func(campaign.Instance) campaign.Result) int {
	var ok []*reqRec
	for i := range recs {
		if recs[i].ok() && recs[i].result != nil {
			ok = append(ok, &recs[i])
		}
	}
	if len(ok) == 0 {
		return 0
	}
	step := (len(ok) + limit - 1) / limit
	checked := 0
	for i := 0; i < len(ok); i += step {
		r := ok[i]
		got, err1 := json.Marshal(r.result)
		exp, err2 := json.Marshal(want(instanceOf(r.req)))
		if err1 != nil || err2 != nil || string(got) != string(exp) {
			b.fail("%s: served result for request %d differs from one-shot run:\n served  %s\n oneshot %s",
				name, r.req.Index, got, exp)
		}
		checked++
	}
	return checked
}

// latencyWindow is one open-loop slice, [from, to), as a window of
// latencies in ms, from each request's due time to its decoded reply; a
// failed request counts as +Inf, missing every limit.
func latencyWindow(recs []reqRec, from, to time.Time) window {
	w := window{from: from, to: to, vals: make([]float64, len(recs))}
	for i := range recs {
		w.vals[i] = math.Inf(1)
		if recs[i].ok() {
			w.vals[i] = ms(recs[i].done.Sub(recs[i].due))
		}
	}
	return w
}

func runServe(b *bench, w serveWorkload) error {
	seed, traced := b.opt.seed, b.traced()
	scheme := defaultScheme(traced)
	gen := w.gen(seed, scheme)
	total := time.Duration(b.opt.seconds * float64(time.Second))
	slices := max(1, int(math.Round(float64(total)/float64(slicePeriod))))
	period := total / time.Duration(slices)
	openSlice := time.Duration(float64(period) * w.openShare)
	satSlice := period - openSlice
	arrivals := poisson(seed, w.rate, openSlice*time.Duration(slices), len(w.tenants), gen)
	satPreview := make([]service.Request, 0, 64)
	for i := uint64(0); i < 64; i++ {
		satPreview = append(satPreview, gen(streamSat<<8, i, 0))
	}
	b.record["input_digest"] = digest(w.name, arrivals, satPreview, w.warmup(seed, scheme, 0))
	b.record["offered_rate_per_s"] = w.rate

	// Set-up, repeated: server start, listen, dial, hello and the named
	// warm-up. Every repetition but the last is torn down again.
	var setups []float64
	var env *serveEnv
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		e, err := startServe(w.tenants, traced)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := e.doAll(w.warmup(seed, scheme, rep)); err != nil {
			e.close()
			return fmt.Errorf("setup warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			e.close()
		} else {
			env = e
		}
	}
	defer env.close()
	b.record["setup_samples_s"] = setups
	runtime.GC()

	var stopSampler func() int64
	if traced {
		stopSampler = sampleQueued(env.srv)
	}
	poolBefore := env.srv.Snapshot().Pool
	sigBefore := sigCount.snapshot()
	wireBefore := env.wire.Snapshot()
	var inflightMax maxGauge
	heap := startHeapSampler(heapEvery)
	mon := startStealMonitor()
	before := readProc()

	// The timed phase alternates an open-loop slice and a saturation
	// slice. Arrivals keep their schedule across slices: slice k sends
	// those due in [k, k+1) open-slice lengths.
	var open []reqRec
	var openWins []window
	var sat satResult
	var rates, rateSteal []float64
	next := make([]uint64, len(env.clients)*satPerConn)
	for k, lo := 0, 0; k < slices; k++ {
		shift := openSlice * time.Duration(k)
		hi := lo
		for hi < len(arrivals) && arrivals[hi].At < shift+openSlice {
			hi++
		}
		t0 := time.Now()
		recs := env.openLoop(arrivals[lo:hi], shift, &inflightMax, diffEvery)
		if len(recs) > 0 {
			openWins = append(openWins, latencyWindow(recs, t0, t0.Add(openSlice)))
		}
		open = append(open, recs...)
		lo = hi

		t0 = time.Now()
		s := env.closedLoop(gen, satSlice, satPerConn, traced, next)
		rates = append(rates, s.rate)
		rateSteal = append(rateSteal, mon.share(t0, t0.Add(satSlice)))
		sat.kept = append(sat.kept, s.kept...)
		sat.attempted += s.attempted
	}

	after := readProc()
	mon.Stop()
	heapMB := heap.Stop()
	b.record["steal_share"] = mon.share(time.Time{}, time.Time{})
	openOK, openBusy := b.account("open_loop", open, int64(len(open)))
	satOK, satBusy := b.account("saturation", sat.kept, sat.attempted)
	completed := openOK + satOK
	if completed == 0 {
		return fmt.Errorf("no request completed")
	}

	b.addE2E("setup_s", "s", median(setups), len(setups))
	b.addLatency(openWins, mon)
	// Each saturation slice is one window: the rate is the median over
	// the calm slices (see calmest).
	b.addE2E("inst_per_s", "1/s", calmMedian(rates, rateSteal), int(satOK))
	b.addE2E("cpu_ms_per_inst", "ms", ms(after.cpu-before.cpu)/float64(completed), int(completed))
	b.addE2E("allocs_per_inst", "count", float64(after.mallocs-before.mallocs)/float64(completed), int(completed))
	b.addHeap(heapMB)
	b.record["slices"] = slices
	b.record["slice_open_s"] = openSlice.Seconds()
	b.record["slice_saturation_s"] = satSlice.Seconds()
	b.record["saturation_windows_per_s"] = rates
	b.record["saturation_windows_steal"] = rateSteal
	late := lateness(open)
	b.record["loadgen.late_p99_ms"] = late.pct(0.99)

	// Correctness after the timed phase: a served sample must match
	// one-shot runs byte for byte.
	all := append(open, sat.kept...)
	b.record["differential_checked"] = b.differential(w.name, all, diffSamples, campaign.RunInstance)

	if !traced {
		return nil
	}
	queuedMax := stopSampler()
	pool := env.srv.Snapshot().Pool
	trafficSig := sigCount.snapshot().minus(sigBefore)
	b.serviceLayers(all, completed, openBusy+satBusy, late, inflightMax.get(), queuedMax,
		pool.Hits-poolBefore.Hits, pool.Misses-poolBefore.Misses, pool.Cells,
		env.wire.Snapshot(), wireBefore, "")
	b.simLayers(servedTraffic(all))

	// Layers this workload's path skips, and per-protocol figures for
	// protocols it does not serve, are measured on the panel: the sweep
	// grid at one seed, run through a coordinator and then replayed
	// together with a sample of the served instances.
	panelSpec := sweepSpec(seed, 1, scheme)
	panelRep, err := b.schedProbe(panelSpec)
	if err != nil {
		return fmt.Errorf("sched probe: %w", err)
	}
	panel, err := campaign.Expand(panelSpec)
	if err != nil {
		return err
	}
	insts := panel
	step := len(all)/64 + 1
	for i := 0; i < len(all); i += step {
		if all[i].ok() {
			inst := instanceOf(all[i].req)
			inst.Index = len(insts)
			insts = append(insts, inst)
		}
	}
	b.replay(insts, func(inst campaign.Instance) (campaign.Result, bool) {
		if inst.Index < len(panelRep.Results) {
			return panelRep.Results[inst.Index], true
		}
		return campaign.Result{}, false
	})
	b.keydistProbe()
	b.sigLayers(trafficSig, sigCount.snapshot(), completed)
	return nil
}

// lateness is how far behind schedule the generator sent each
// open-loop request, in ms.
func lateness(recs []reqRec) *dist {
	d := &dist{}
	for i := range recs {
		d.add(ms(recs[i].sent.Sub(recs[i].due)))
	}
	return d
}

// sampleQueued polls the server's Snapshot().Queued until the returned
// stop function is called; stop returns the largest value seen.
func sampleQueued(srv *service.Server) func() int64 {
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var peak int64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				if q := srv.Snapshot().Queued; q > peak {
					peak = q
				}
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

func servedTraffic(recs []reqRec) []traffic {
	out := make([]traffic, 0, len(recs))
	for i := range recs {
		if recs[i].ok() {
			out = append(out, recs[i].traffic)
		}
	}
	return out
}
