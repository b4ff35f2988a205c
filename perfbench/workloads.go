package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"
)

// workload is one entry of spec.json's workloads: the configuration
// the run uses and records.
type workload struct {
	Why          string  `json:"why"`
	WorldSeed    uint64  `json:"world_seed"`
	ScenarioSeed uint64  `json:"scenario_seed"`
	Clients      int     `json:"clients"`
	QuerySetSeed uint64  `json:"query_set_seed"`
	Setups       int     `json:"setups"`
	ZipfS        float64 `json:"zipf_s"`
	ZipfV        float64 `json:"zipf_v"`
	StreamLen    int     `json:"stream_len"`
	MinRounds    int     `json:"min_rounds"`
}

// Warm-up thresholds of hot: the curation window holds 512
// observations and trims at 576, so 576 asks fill it; promotions count
// as settled after this many asks without one.
const (
	warmAsks     = 576
	settleAsks   = 256
	warmDeadline = 90 * time.Second
)

// hotSegment is the length of one segment of hot's measured phase.
const hotSegment = 5 * time.Second

// runHot sets up Setups servers, one after another, for as many
// set-up samples, and measures the last: it warms it until every plan
// is cached and curation has settled, then runs a closed loop of
// Clients clients drawing Zipf-skewed from the hot set for d, in
// segments of about hotSegment.
func runHot(ctx context.Context, p *pass, w workload, seed uint64, d time.Duration, t0 time.Time) error {
	var b *bench
	for i := range w.Setups {
		if i > 0 {
			b.close()
			t0 = time.Now()
		}
		var err error
		if b, err = boot(ctx, p, w, t0); err != nil {
			return err
		}
	}
	defer b.close()
	b.unsubscribe()
	set := newGenerator(b.env, w.QuerySetSeed).hotSet()
	zipf := func(seed, stream uint64) func() query {
		z := rand.NewZipf(rand.New(rand.NewPCG(seed, stream)), w.ZipfS, w.ZipfV, uint64(len(set)-1))
		return func() query { return set[z.Uint64()] }
	}
	if err := warmHot(ctx, p, b, set, zipf(w.QuerySetSeed, 0)); err != nil {
		return err
	}
	draws := make([]func() query, w.Clients)
	for c := range draws {
		draws[c] = zipf(seed, uint64(c)+1)
	}
	segments := max(1, int(d/hotSegment))
	for range segments {
		win := p.begin(b)
		closedLoop(ctx, w.Clients, d/time.Duration(segments), func(ctx context.Context, c int) {
			b.ask(ctx, p, draws[c](), true)
		})
		p.end(win, b)
	}
	return nil
}

// warmHot asks from one client, untimed, until the history window is
// full, promotions have settled and a pass over the whole set neither
// misses a plan nor promotes. One client and a draw sequence fixed by
// the query set make the warmed state, and with it the registry the
// measured phase curates against, the same in every run.
func warmHot(ctx context.Context, p *pass, b *bench, set []query, draw func() query) error {
	deadline := time.Now().Add(warmDeadline)
	asks, lastPromo, promos := 0, 0, len(b.sys.Promotions())
	for time.Now().Before(deadline) {
		b.ask(ctx, p, draw(), false)
		asks++
		if n := len(b.sys.Promotions()); n != promos {
			promos, lastPromo = n, asks
		}
		if asks < warmAsks || asks-lastPromo < settleAsks {
			continue
		}
		before := b.sys.CacheStats().Plan.Misses
		for _, q := range set {
			b.ask(ctx, p, q, false)
		}
		if b.sys.CacheStats().Plan.Misses == before && len(b.sys.Promotions()) == promos {
			return p.warmErr
		}
	}
	return fmt.Errorf("hot warm-up did not settle within %v", warmDeadline)
}

// runNovel replays one stream of StreamLen queries, drawn with
// QuerySetSeed, from one client in every round: the stream does not
// depend on the run's seed, so cache and curation state evolve the
// same way in every round of every run and the exact counts can
// repeat. Each round runs on a freshly set-up, cold server, until d
// has passed since the run began (set-ups included) and at least
// MinRounds rounds ran. A set-up per round spreads the set-up and
// boot-delta samples over the whole run instead of its first seconds.
func runNovel(ctx context.Context, p *pass, w workload, d time.Duration, t0 time.Time, ref *roundCounts) error {
	began := time.Now()
	for round := 0; round < w.MinRounds || time.Since(began) < d; round++ {
		if round > 0 {
			t0 = time.Now()
		}
		b, err := boot(ctx, p, w, t0)
		if err != nil {
			return err
		}
		b.unsubscribe()
		stream := newGenerator(b.env, w.QuerySetSeed).stream(w.StreamLen)
		fresh0, resp0 := p.snapshot()
		win := p.begin(b)
		for _, q := range stream {
			b.ask(ctx, p, q, true)
		}
		p.endRound(win, b, fresh0, resp0, ref)
		b.close()
	}
	return nil
}
