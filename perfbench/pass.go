package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"arachnet/internal/core"
)

// pass accumulates one pass over a workload: untraced for the
// end-to-end metrics, traced (tr != nil) for the per-layer ones.
type pass struct {
	tr *tracer

	mu        sync.Mutex // guards the fields below; hot's clients share them
	nextReq   uint64
	setups    []float64 // seconds
	latency   []float64 // ms, measured asks
	segs      []segment // one per accounting window
	delta     []float64 // ms, injection sent until delta frame read
	attempted int
	failed    int
	firstErr  error
	warmErr   error

	// Measured-phase totals from the accounting windows.
	cpu       time.Duration
	alloc     uint64
	gcCycles  uint32
	gcPauseNS uint64
	queuedMax int
	plan      core.CacheCounters // hits, misses and evictions only
	step      core.CacheCounters
	promoted  int
	window    int

	// Per-ask layer counts over measured asks.
	asks        int
	stepsFresh  int
	stepsCached int
	respBytes   int64
	elapsedUS   map[uint64]int64 // request id -> report elapsed_us (traced pass)

	// Fresh capability time over every ask of the pass.
	capUS  map[string]int64
	capRun map[string]int

	// Subscription deltas.
	deltas          int
	subFresh        int
	subCached       int
	verdictsChecked int
	verdictsAgreed  int

	// Exact counts of single-client rounds.
	rounds     []roundCounts
	mismatches int
}

// segment is one accounting window's share of the measured asks: a
// round of novel, a slice of hot's closed loop.
type segment struct {
	latency  []float64 // ms
	wall     time.Duration
	heapPeak uint64
}

// roundCounts are the counts one round of a single-client workload
// must repeat exactly.
type roundCounts struct {
	PlanHits, PlanMisses, StepHits, StepMisses int64
	StepsFresh, Promotions                     int
	RespBytes                                  int64
}

func newPass(traced bool) *pass {
	p := &pass{elapsedUS: map[uint64]int64{}, capUS: map[string]int64{}, capRun: map[string]int{}}
	if traced {
		p.tr = newTracer()
	}
	return p
}

func (p *pass) newRequest() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextReq++
	return p.nextReq
}

func (p *pass) recordAsk(req uint64, measured bool, lat time.Duration, body []byte, resp askResponse, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if p.firstErr == nil {
			p.firstErr = err
		}
		if !measured && p.warmErr == nil {
			p.warmErr = err
		}
	}
	for _, st := range resp.Steps {
		if !st.Cached {
			p.capUS[st.Capability] += st.DurationUS
			p.capRun[st.Capability]++
		}
	}
	if !measured {
		return
	}
	p.attempted++
	if err != nil {
		p.failed++
		return
	}
	ms := float64(lat.Nanoseconds()) / 1e6
	p.latency = append(p.latency, ms)
	seg := &p.segs[len(p.segs)-1]
	seg.latency = append(seg.latency, ms)
	p.asks++
	for _, st := range resp.Steps {
		if st.Cached {
			p.stepsCached++
		} else {
			p.stepsFresh++
		}
	}
	p.respBytes += int64(timingFreeLen(body))
	if p.tr != nil {
		p.elapsedUS[req] = resp.ElapsedUS
	}
}

func (p *pass) recordDelta(err error, d time.Duration, ev subEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.delta = append(p.delta, float64(d.Nanoseconds())/1e6)
	p.deltas++
	if ev.Delta != nil {
		p.subFresh += ev.Delta.StepsRun
		p.subCached += ev.Delta.StepsCached
	} else {
		p.subFresh += ev.StepsRun
		p.subCached += ev.StepsCached
	}
}

// window is one accounting window around a measured phase.
type window struct {
	start      time.Time
	cpu        time.Duration
	mem        runtime.MemStats
	cache      core.CacheStats
	promotions int
	stop       chan struct{}
	sampled    sync.WaitGroup
	heapPeak   uint64
	queuedMax  int
}

// begin opens a measured phase on b and starts the heap and queue
// sampler.
func (p *pass) begin(b *bench) *window {
	w := &window{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.mem)
	w.cache = b.sys.CacheStats()
	w.promotions = len(b.sys.Promotions())
	w.cpu = cpuTime()
	w.sampled.Add(1)
	go w.sample(b)
	p.mu.Lock()
	p.segs = append(p.segs, segment{})
	p.mu.Unlock()
	w.start = time.Now()
	return w
}

// sample polls heap-in-use (runtime/metrics, no stop-the-world) and
// the scheduler queue every 10ms until the window ends.
func (w *window) sample(b *bench) {
	defer w.sampled.Done()
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		w.heapPeak = max(w.heapPeak, s[0].Value.Uint64()+s[1].Value.Uint64())
		w.queuedMax = max(w.queuedMax, b.srv.Scheduler().Stats().Queued)
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// end closes the window and adds its totals to the pass. It returns
// the window's exact counts.
func (p *pass) end(w *window, b *bench) roundCounts {
	wall := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	close(w.stop)
	w.sampled.Wait()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cache := b.sys.CacheStats()

	p.mu.Lock()
	defer p.mu.Unlock()
	seg := &p.segs[len(p.segs)-1]
	seg.wall, seg.heapPeak = wall, w.heapPeak
	p.cpu += cpu
	p.alloc += mem.TotalAlloc - w.mem.TotalAlloc
	p.gcCycles += mem.NumGC - w.mem.NumGC
	p.gcPauseNS += mem.PauseTotalNs - w.mem.PauseTotalNs
	p.queuedMax = max(p.queuedMax, w.queuedMax)
	rc := roundCounts{
		PlanHits:   cache.Plan.Hits - w.cache.Plan.Hits,
		PlanMisses: cache.Plan.Misses - w.cache.Plan.Misses,
		StepHits:   cache.Step.Hits - w.cache.Step.Hits,
		StepMisses: cache.Step.Misses - w.cache.Step.Misses,
		Promotions: len(b.sys.Promotions()) - w.promotions,
	}
	p.plan.Hits += rc.PlanHits
	p.plan.Misses += rc.PlanMisses
	p.plan.Evictions += cache.Plan.Evictions - w.cache.Plan.Evictions
	p.step.Hits += rc.StepHits
	p.step.Misses += rc.StepMisses
	p.step.Evictions += cache.Step.Evictions - w.cache.Step.Evictions
	p.promoted += rc.Promotions
	p.window = len(b.sys.History())
	return rc
}

// endRound closes a single-client round's window and checks its exact
// counts against the reference round (the first round of the first
// pass, so traced rounds are held to the untraced ones).
func (p *pass) endRound(w *window, b *bench, fresh0 int, resp0 int64, ref *roundCounts) {
	rc := p.end(w, b)
	p.mu.Lock()
	defer p.mu.Unlock()
	rc.StepsFresh = p.stepsFresh - fresh0
	rc.RespBytes = p.respBytes - resp0
	p.rounds = append(p.rounds, rc)
	if *ref == (roundCounts{}) {
		*ref = rc
	} else if rc != *ref {
		p.mismatches++
	}
}

// snapshot returns the running per-ask totals a round starts from.
func (p *pass) snapshot() (int, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stepsFresh, p.respBytes
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// segMedian is the median over segments of f.
func segMedian(segs []segment, f func(segment) float64) float64 {
	xs := make([]float64, 0, len(segs))
	for _, s := range segs {
		if len(s.latency) > 0 {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// closedLoop runs one goroutine per client, each sending its next ask
// only after the previous one completed, until d has passed.
func closedLoop(ctx context.Context, clients int, d time.Duration, step func(ctx context.Context, client int)) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				step(context.WithoutCancel(ctx), c)
			}
		}()
	}
	wg.Wait()
}
