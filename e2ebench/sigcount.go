package main

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/sig"
)

// countedScheme is the counting wrapper around ed25519 the traced run's
// inputs name. It generates, signs and verifies with exactly the ed25519
// keys and signatures (so verdicts and wire sizes match the untraced
// run), counting and timing each call on the way through. Test calls are
// the verifies that reach the predicate: the sig memo answers repeats
// before they get here.
const countedScheme = "e2ebench-ed25519"

type sigCounters struct {
	keygens, signs, tests    atomic.Int64
	keygenNS, signNS, testNS atomic.Int64
}

type sigSnapshot struct {
	keygens, signs, tests    int64
	keygenNS, signNS, testNS int64
}

var sigCount sigCounters

func (c *sigCounters) snapshot() sigSnapshot {
	return sigSnapshot{
		keygens: c.keygens.Load(), signs: c.signs.Load(), tests: c.tests.Load(),
		keygenNS: c.keygenNS.Load(), signNS: c.signNS.Load(), testNS: c.testNS.Load(),
	}
}

func (s sigSnapshot) minus(o sigSnapshot) sigSnapshot {
	return sigSnapshot{
		keygens: s.keygens - o.keygens, signs: s.signs - o.signs, tests: s.tests - o.tests,
		keygenNS: s.keygenNS - o.keygenNS, signNS: s.signNS - o.signNS, testNS: s.testNS - o.testNS,
	}
}

func init() {
	base, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		panic(err) // ed25519 registers itself at init; absence is a build bug
	}
	sig.Register(countingScheme{base: base})
}

type countingScheme struct{ base sig.Scheme }

func (countingScheme) Name() string { return countedScheme }

func (s countingScheme) Generate(rand io.Reader) (sig.Signer, error) {
	t0 := time.Now()
	signer, err := s.base.Generate(rand)
	sigCount.keygenNS.Add(int64(time.Since(t0)))
	sigCount.keygens.Add(1)
	if err != nil {
		return nil, err
	}
	return &countingSigner{base: signer, pred: &countingPredicate{base: signer.Predicate()}}, nil
}

func (s countingScheme) ParsePredicate(data []byte) (sig.TestPredicate, error) {
	p, err := s.base.ParsePredicate(data)
	if err != nil {
		return nil, err
	}
	return &countingPredicate{base: p}, nil
}

type countingSigner struct {
	base sig.Signer
	pred *countingPredicate
}

func (s *countingSigner) Sign(msg []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := s.base.Sign(msg)
	sigCount.signNS.Add(int64(time.Since(t0)))
	sigCount.signs.Add(1)
	return out, err
}

func (s *countingSigner) Predicate() sig.TestPredicate { return s.pred }

type countingPredicate struct{ base sig.TestPredicate }

func (p *countingPredicate) Test(msg, signature []byte) bool {
	t0 := time.Now()
	ok := p.base.Test(msg, signature)
	sigCount.testNS.Add(int64(time.Since(t0)))
	sigCount.tests.Add(1)
	return ok
}

func (p *countingPredicate) Bytes() []byte { return p.base.Bytes() }

func (p *countingPredicate) Fingerprint() string { return p.base.Fingerprint() }
