package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/sig"
)

// Input generation. Every input a workload sends is a pure function of
// (workload, --seed, stream, index) through splitmix64, so the same seed
// gives the same requests in the same order on any machine, and the
// generator allocates nothing per request.

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the k-th 64-bit value of a (seed, stream, index) source.
func draw(seed int64, stream, index, k uint64) uint64 {
	return splitmix(splitmix(splitmix(uint64(seed)^stream*0x632be59bd9b4e019)^index) + k)
}

// unit maps a draw onto (0, 1].
func unit(v uint64) float64 { return (float64(v>>11) + 1) / (1 << 53) }

// Streams separate the independent sequences one seed feeds.
const (
	streamOpen uint64 = iota + 1
	streamSat
	streamKeys
	streamSweep
	streamProbe
)

// arrival is one open-loop request: when it is due (offset from the
// phase start), which connection sends it, and what it asks.
type arrival struct {
	At   time.Duration   `json:"at"`
	Conn int             `json:"conn"`
	Req  service.Request `json:"req"`
}

// requestGen builds the i-th request of a stream for the tenant on
// connection conn.
type requestGen func(stream, i uint64, conn int) service.Request

// poisson lays out seeded Poisson arrivals at rate per second over dur,
// each sent on a uniformly drawn one of conns connections.
func poisson(seed int64, rate float64, dur time.Duration, conns int, gen requestGen) []arrival {
	var out []arrival
	at := 0.0
	for i := uint64(0); ; i++ {
		at += -math.Log(unit(draw(seed, streamOpen, i, 0))) / rate
		if at >= dur.Seconds() {
			return out
		}
		conn := int(draw(seed, streamOpen, i, 1) % uint64(conns))
		out = append(out, arrival{At: time.Duration(at * float64(time.Second)), Conn: conn,
			Req: gen(streamOpen, i, conn)})
	}
}

// warmTenants are serve_warm's two connections: one tenant per protocol.
var warmTenants = []string{campaign.ProtoChain, campaign.ProtoFDBA}

// warmKeySeeds are the 8 key-seed cells serve_warm's traffic spreads
// over; they are warmed during set-up.
func warmKeySeeds(seed int64) []int64 {
	out := make([]int64, 8)
	for k := range out {
		out[k] = int64(draw(seed, streamKeys, uint64(k), 0)>>33) + 1
	}
	return out
}

// warmGen is serve_warm's request generator: chain on connection 0 and
// fdba on connection 1, n=8/t=2, spread uniformly over the key cells.
func warmGen(seed int64, scheme string) requestGen {
	keys := warmKeySeeds(seed)
	return func(stream, i uint64, conn int) service.Request {
		return service.Request{
			Index:    int(stream<<32 | i),
			Protocol: warmTenants[conn],
			N:        8, T: 2,
			Scheme:  scheme,
			Seed:    int64(draw(seed, stream, i, 2) >> 33),
			KeySeed: keys[draw(seed, stream, i, 3)%uint64(len(keys))],
		}
	}
}

// coldProtocols and coldSizes span serve_cold's mix. n=8 is drawn twice
// as often as n=4: with an even split the median request would sit in
// the gap between the two sizes' costs, and the p50 would jump between
// them from seed to seed.
var (
	coldProtocols = []string{campaign.ProtoChain, campaign.ProtoFDBA, campaign.ProtoVector}
	coldSizes     = []struct{ n, t int }{{4, 1}, {8, 2}, {8, 2}}
)

// coldGen is serve_cold's request generator: every request names a key
// seed no other request uses, so every checkout misses the warm pool.
func coldGen(seed int64, scheme string) requestGen {
	return func(stream, i uint64, _ int) service.Request {
		size := coldSizes[draw(seed, stream, i, 4)%uint64(len(coldSizes))]
		return service.Request{
			Index:    int(stream<<32 | i),
			Protocol: coldProtocols[draw(seed, stream, i, 5)%uint64(len(coldProtocols))],
			N:        size.n, T: size.t,
			Scheme:  scheme,
			Seed:    int64(draw(seed, stream, i, 2) >> 33),
			KeySeed: int64(stream<<40|i) ^ int64(draw(seed, streamKeys, 0, 0)>>24),
		}
	}
}

// coldWarmup is serve_cold's named set-up warm-up: one request per
// (protocol, n) of the mix, on key seeds the timed phase never uses.
func coldWarmup(_ int64, scheme string, rep int) [][]service.Request {
	out := make([][]service.Request, 2)
	k := 0
	for _, p := range coldProtocols {
		for _, size := range coldSizes[:2] {
			out[k%2] = append(out[k%2], service.Request{
				Index: -1 - k, Protocol: p, N: size.n, T: size.t, Scheme: scheme,
				Seed: int64(k), KeySeed: -int64(rep*100 + k + 1),
			})
			k++
		}
	}
	return out
}

// warmWarmup fills every serve_warm pool cell with PoolIdle (2) parked
// setups: two requests per (tenant, key seed), all in flight at once.
func warmWarmup(seed int64, scheme string, _ int) [][]service.Request {
	out := make([][]service.Request, len(warmTenants))
	for conn, p := range warmTenants {
		for _, ks := range warmKeySeeds(seed) {
			for r := 0; r < 2; r++ {
				out[conn] = append(out[conn], service.Request{
					Index: -1, Protocol: p, N: 8, T: 2, Scheme: scheme,
					Seed: int64(r), KeySeed: ks,
				})
			}
		}
	}
	return out
}

// sweepSpec is sweep_adversarial's grid: the fdcampaign -coordinator
// shape over every registered protocol, four (n, t) cases, five
// adversaries and two network conditions, at seeds seeds per cell.
func sweepSpec(seed int64, seeds int, scheme string) campaign.Spec {
	return campaign.Spec{
		Name: "sweep_adversarial",
		Protocols: []string{campaign.ProtoChain, campaign.ProtoNonAuth, campaign.ProtoSmallRange,
			campaign.ProtoVector, campaign.ProtoEIG, campaign.ProtoFDBA, campaign.ProtoSM},
		Cases:   []campaign.Case{{N: 4, T: 1}, {N: 7, T: 2}, {N: 10, T: 3}, {N: 16, T: 3}},
		Schemes: []string{scheme},
		Adversaries: []string{campaign.AdvNone, campaign.AdvCrashRelay, campaign.AdvEquivocate,
			"coalition:size=2,behavior=equivocate,partition=even-odd", "nodes=1:behavior=tamper"},
		NetConds:  []string{campaign.NetCondIdeal, "latency=uniform-0-2,loss=0.05"},
		SeedBase:  int64(draw(seed, streamSweep, 0, 0)>>34) + 1,
		SeedCount: seeds,
	}
}

// defaultScheme is the scheme the untraced run names; the traced run
// names the counting wrapper around the same ed25519 keys instead.
func defaultScheme(traced bool) string {
	if traced {
		return countedScheme
	}
	return sig.SchemeEd25519
}

// digest fingerprints generated inputs for the run record.
func digest(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		_ = enc.Encode(p) // plain data; hashing cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
