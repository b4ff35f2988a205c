// Continuous monitoring: Subscribe turns one query into a standing
// query — a continuously maintained result instead of a one-shot
// report. A Subscription re-executes automatically whenever the
// environment mutates (scenario injection bumps the epoch) or the
// registry evolves (curator promotions bump the generation): both
// expose a Watch seam that pokes the subscription's wake-up channel,
// so subscribers are pushed to, never polling. Re-execution is
// incremental — the facet-scoped cache keys installed by the system's
// env keyer (see system.go) mean only steps whose environment view or
// upstream fingerprints changed actually run; everything else replays
// from the step cache with StepStat.Cached set.
//
// Subscribers consume typed delta events (SubEvent), not full reports:
// SubscriptionStarted carries the baseline, ResultChanged a structured
// diff of step-output paths, AnomalyAppeared/AnomalyCleared track the
// anomaly-signal set extracted from the result (latency shifts, BGP
// bursts, cable-failure verdicts), ResultUnchanged is the heartbeat
// for wake-ups whose re-execution converged to the same result, and
// SubscriptionClosed terminates every stream. The full current report
// stays available via Subscription.Current.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"arachnet/internal/bgp"
)

// Re-execution causes carried by ResultChanged/ResultUnchanged.
const (
	// CauseEnvironment: the environment's mutation epoch bumped
	// (scenario injection).
	CauseEnvironment = "environment"
	// CauseRegistry: the registry generation changed (capability
	// registered or curator promotion).
	CauseRegistry = "registry"
)

// SubEvent is one observable occurrence in the lifecycle of a standing
// query. Concrete events are pointers to the structs below — type-
// switch to consume them, exactly like Event. Every subscription's
// stream starts with SubscriptionStarted and ends with
// SubscriptionClosed.
type SubEvent interface {
	subMeta() *SubEventMeta
}

// SubEventMeta is the header common to every subscription event.
type SubEventMeta struct {
	// SubID identifies the subscription within its System.
	SubID uint64
	// Query is the standing query's natural-language text.
	Query string
	// Seq is the 0-based emission index within the subscription.
	Seq int
	// Revision counts re-executions: 0 is the baseline run,
	// incremented once per wake-up that re-executed the query.
	Revision int
	// Time is when the event was emitted.
	Time time.Time
}

func (m *SubEventMeta) subMeta() *SubEventMeta { return m }

// SubscriptionStarted is the first event of every subscription: the
// baseline report (possibly partial) and the baseline run's error. A
// failed baseline does not close the subscription — the failure is the
// baseline state, and a later environment change that makes the query
// succeed surfaces as ResultChanged.
type SubscriptionStarted struct {
	SubEventMeta
	Report *Report
	Err    error
}

// ResultChanged reports that a re-execution produced a different
// result: a structured delta, not the full report (use
// Subscription.Current for that).
type ResultChanged struct {
	SubEventMeta
	// Cause names what woke the subscription: CauseEnvironment,
	// CauseRegistry, or "environment+registry" when both changed
	// before the run.
	Cause string
	Delta *ResultDelta
}

// ResultUnchanged is the heartbeat: the subscription woke up,
// re-executed, and converged to an identical result. StepsCached
// vs StepsRun shows how much of the re-execution was replayed.
type ResultUnchanged struct {
	SubEventMeta
	Cause       string
	StepsRun    int
	StepsCached int
}

// AnomalyAppeared reports an anomaly signal present in the current
// result that was absent from the previous one. Baseline anomalies are
// emitted at revision 0, right after SubscriptionStarted.
type AnomalyAppeared struct {
	SubEventMeta
	Anomaly AnomalySignal
}

// AnomalyCleared reports an anomaly signal that vanished from the
// result.
type AnomalyCleared struct {
	SubEventMeta
	Anomaly AnomalySignal
}

// SubscriptionClosed is the terminal event: explicit Close, context
// cancellation, or System shutdown. It is always the last event; the
// Events channels close after it.
type SubscriptionClosed struct {
	SubEventMeta
	Reason string
}

// AnomalySignal is one anomaly-shaped finding extracted from a result:
// a detected latency shift (traceroute), a BGP update burst, or a
// cable-failure verdict (forensic synthesis). Key is the stable
// identity deltas are computed over — kind plus the producing
// step-output path.
type AnomalySignal struct {
	Key    string `json:"key"`
	Kind   string `json:"kind"` // "latency-shift", "bgp-burst", "cable-failure"
	Source string `json:"source"`
	Detail string `json:"detail"`
}

// OutputDiff is one changed step-output path in a ResultDelta, with
// canonically rendered (and possibly truncated) before/after values.
type OutputDiff struct {
	Path   string `json:"path"`
	Before string `json:"before"`
	After  string `json:"after"`
}

// ResultDelta is the structured difference between two consecutive
// runs of a standing query, computed over the result's step-output
// paths ("stepID.port"). All lists are sorted by path, so the same
// transition always renders the same delta.
type ResultDelta struct {
	// ErrBefore/ErrAfter capture error-state transitions (a query
	// failing before data arrives, succeeding after an injection).
	ErrBefore string `json:"err_before,omitempty"`
	ErrAfter  string `json:"err_after,omitempty"`
	// Added/Removed are step-output paths present in only one run.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
	// Changed lists paths whose value changed.
	Changed []OutputDiff `json:"changed,omitempty"`
	// StepsRun/StepsCached count fresh executions vs step-cache
	// replays in the new run — the observable incrementality of the
	// re-execution.
	StepsRun    int `json:"steps_run"`
	StepsCached int `json:"steps_cached"`
}

func (d *ResultDelta) empty() bool {
	return d.ErrBefore == d.ErrAfter &&
		len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Changed) == 0
}

// admitRetryDelay paces retries when a shared scheduler's queue is
// full: subscription re-executions are background work and yield to
// interactive runs rather than failing the subscription.
const admitRetryDelay = 20 * time.Millisecond

// Subscription is one standing query. All methods are safe for
// concurrent use.
type Subscription struct {
	id    uint64
	query string
	opts  []AskOption
	sys   *System

	// poke is the wake-up channel registered with the environment and
	// registry watchers; capacity 1 coalesces mutation bursts.
	poke   chan struct{}
	cancel context.CancelFunc
	// closed is closed when the watch loop has fully exited (terminal
	// event recorded); it also gates the Events replay grace period.
	closed chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	events   []SubEvent
	seq      int
	revision int
	current  *Report
	err      error
	done     bool
	reason   string
}

// ID is the subscription's identifier, unique per System.
func (sub *Subscription) ID() uint64 { return sub.id }

// Query returns the standing query's natural-language text.
func (sub *Subscription) Query() string { return sub.query }

// Done returns a channel closed once the subscription is fully closed
// and its terminal event recorded.
func (sub *Subscription) Done() <-chan struct{} { return sub.closed }

// Current returns the latest report and run error — what the last
// (re-)execution produced.
func (sub *Subscription) Current() (*Report, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.current, sub.err
}

// Revision returns how many times the standing query has re-executed
// (0 = baseline only).
func (sub *Subscription) Revision() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.revision
}

// Close stops the standing query: the watch loop exits, a
// SubscriptionClosed event terminates every stream, and the
// subscription is dropped from the System's table. Close is
// idempotent and blocks until the terminal event is recorded.
func (sub *Subscription) Close() { sub.closeWith("closed") }

func (sub *Subscription) closeWith(reason string) {
	sub.mu.Lock()
	if sub.reason == "" {
		sub.reason = reason
	}
	sub.mu.Unlock()
	sub.cancel()
	<-sub.closed
}

// Events returns a channel replaying the subscription's event stream
// from the beginning — late subscribers see the full history including
// the baseline SubscriptionStarted — then following it live until the
// terminal SubscriptionClosed, after which the channel closes. Each
// call gets an independent channel. As with Job.Events, a subscriber
// that stops draining after the subscription closes forfeits remaining
// events after a grace period.
func (sub *Subscription) Events() <-chan SubEvent {
	return replayLog(&sub.mu, sub.cond, &sub.events, func() bool { return sub.done }, sub.closed)
}

// record stamps and appends one event, waking stream subscribers.
func (sub *Subscription) record(ev SubEvent) {
	sub.mu.Lock()
	m := ev.subMeta()
	m.SubID, m.Query, m.Seq, m.Revision, m.Time = sub.id, sub.query, sub.seq, sub.revision, time.Now()
	sub.seq++
	sub.events = append(sub.events, ev)
	sub.cond.Broadcast()
	sub.mu.Unlock()
}

// subTable indexes a System's live subscriptions.
type subTable struct {
	mu     sync.Mutex
	nextID uint64
	subs   map[uint64]*Subscription
}

// Subscribe registers a standing query: it runs the query once
// synchronously to establish the baseline (recorded as the stream's
// SubscriptionStarted event — a baseline failure is a valid baseline
// state, not a Subscribe error), then watches the environment and
// registry and re-executes on every change until ctx is cancelled,
// Close is called, or the System shuts down. Per-call options apply to
// every re-execution; curation is always disabled for subscription
// runs so a standing query cannot keep triggering its own promotions.
//
// Every run is an Ask, so on a shared Scheduler it takes a run slot
// (retrying quietly while the queue is full) and creates no Job.
func (s *System) Subscribe(ctx context.Context, query string, opts ...AskOption) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if strings.TrimSpace(query) == "" {
		return nil, fmt.Errorf("core: empty subscription query")
	}
	if s.jobs.closed.Load() {
		return nil, ErrJobsClosed
	}

	lctx, cancel := context.WithCancel(ctx)
	sub := &Subscription{
		query:  query,
		opts:   opts,
		sys:    s,
		poke:   make(chan struct{}, 1),
		cancel: cancel,
		closed: make(chan struct{}),
	}
	sub.cond = sync.NewCond(&sub.mu)

	s.subs.mu.Lock()
	s.subs.nextID++
	sub.id = s.subs.nextID
	if s.subs.subs == nil {
		s.subs.subs = map[uint64]*Subscription{}
	}
	s.subs.subs[sub.id] = sub
	s.subs.mu.Unlock()

	// Watch before capturing the baseline's (generation, fingerprint):
	// a mutation landing between capture and the first wait leaves a
	// pending poke, so it can never be missed.
	s.env.Watch(sub.poke)
	s.reg.Watch(sub.poke)

	gen, fp := s.reg.Generation(), s.env.Fingerprint()
	rep, err := sub.execute(lctx)
	if err != nil && errors.Is(err, ErrJobsClosed) {
		s.dropSubscription(sub)
		cancel()
		close(sub.closed)
		return nil, ErrJobsClosed
	}
	sub.mu.Lock()
	sub.current, sub.err = rep, err
	sub.mu.Unlock()
	sub.record(&SubscriptionStarted{Report: rep, Err: err})
	anoms := extractAnomalies(rep)
	for _, a := range anoms {
		sub.record(&AnomalyAppeared{Anomaly: a})
	}

	go sub.loop(lctx, gen, fp, anoms)
	return sub, nil
}

// Subscriptions snapshots the System's live standing queries in
// creation order.
func (s *System) Subscriptions() []*Subscription {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	out := make([]*Subscription, 0, len(s.subs.subs))
	for _, sub := range s.subs.subs {
		out = append(out, sub)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Subscription returns the live standing query with the given ID, or
// nil once it has closed.
func (s *System) Subscription(id uint64) *Subscription {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	return s.subs.subs[id]
}

func (s *System) dropSubscription(sub *Subscription) {
	s.env.Unwatch(sub.poke)
	s.reg.Unwatch(sub.poke)
	s.subs.mu.Lock()
	delete(s.subs.subs, sub.id)
	s.subs.mu.Unlock()
}

// loop is the watch loop: wait for a poke, attribute it, re-execute,
// diff, emit. lastGen/lastFP (and the anomaly set) are the state the
// previous run was computed against — captured BEFORE each run, so a
// mutation racing a run leaves the captured state stale, the next poke
// finds a difference, and the subscription converges to the final
// state rather than serving a stale result.
func (sub *Subscription) loop(ctx context.Context, lastGen uint64, lastFP string, lastAnoms []AnomalySignal) {
	s := sub.sys
	defer close(sub.closed)
	defer s.dropSubscription(sub)
	for {
		select {
		case <-ctx.Done():
			sub.finish(sub.closeReason())
			return
		case <-sub.poke:
		}

		gen, fp := s.reg.Generation(), s.env.Fingerprint()
		cause := changeCause(lastGen, gen, lastFP, fp)
		if cause == "" {
			continue // coalesced or spurious wake-up: nothing changed
		}
		rep, err := sub.execute(ctx)
		if err != nil && errors.Is(err, ErrJobsClosed) {
			sub.finish("system closed")
			return
		}
		if ctx.Err() != nil {
			sub.finish(sub.closeReason())
			return
		}
		lastGen, lastFP = gen, fp

		sub.mu.Lock()
		prevRep, prevErr := sub.current, sub.err
		sub.current, sub.err = rep, err
		sub.revision++
		sub.mu.Unlock()

		delta := computeDelta(prevRep, prevErr, rep, err)
		if delta.empty() {
			sub.record(&ResultUnchanged{
				Cause: cause, StepsRun: delta.StepsRun, StepsCached: delta.StepsCached,
			})
		} else {
			sub.record(&ResultChanged{Cause: cause, Delta: delta})
		}
		anoms := extractAnomalies(rep)
		appeared, cleared := diffAnomalies(lastAnoms, anoms)
		for _, a := range appeared {
			sub.record(&AnomalyAppeared{Anomaly: a})
		}
		for _, a := range cleared {
			sub.record(&AnomalyCleared{Anomaly: a})
		}
		lastAnoms = anoms
	}
}

// closeReason resolves the terminal reason, defaulting to the parent
// context's cancellation when Close was not called explicitly.
func (sub *Subscription) closeReason() string {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.reason != "" {
		return sub.reason
	}
	return "context cancelled"
}

// finish records the terminal event and marks every stream done.
func (sub *Subscription) finish(reason string) {
	sub.record(&SubscriptionClosed{Reason: reason})
	sub.mu.Lock()
	sub.done = true
	sub.cond.Broadcast()
	sub.mu.Unlock()
}

// execute runs one (re-)execution of the standing query as an Ask,
// backing off while a shared scheduler's queue is full. Curation is
// forced off — a subscription that promoted composites on every re-run
// would bump the registry generation and wake itself forever.
func (sub *Subscription) execute(ctx context.Context) (*Report, error) {
	opts := make([]AskOption, 0, len(sub.opts)+1)
	opts = append(opts, sub.opts...)
	opts = append(opts, AskWithoutCuration())
	for {
		rep, err := sub.sys.Ask(ctx, sub.query, opts...)
		if !errors.Is(err, ErrJobQueueFull) {
			return rep, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(admitRetryDelay):
		}
	}
}

// changeCause attributes a wake-up to what actually changed.
func changeCause(prevGen, gen uint64, prevFP, fp string) string {
	switch {
	case gen != prevGen && fp != prevFP:
		return CauseEnvironment + "+" + CauseRegistry
	case fp != prevFP:
		return CauseEnvironment
	case gen != prevGen:
		return CauseRegistry
	default:
		return ""
	}
}

// maxDiffValue bounds the rendered before/after values carried by an
// OutputDiff; full values remain available via Subscription.Current.
const maxDiffValue = 200

// computeDelta diffs two consecutive runs over their step-output
// paths. Values are rendered canonically (JSON sorts map keys and
// dereferences pointers — important because cached steps share output
// pointers across runs), so equal values always render equal and the
// same transition always produces the same delta.
func computeDelta(prevRep *Report, prevErr error, rep *Report, err error) *ResultDelta {
	d := &ResultDelta{}
	if prevErr != nil {
		d.ErrBefore = prevErr.Error()
	}
	if err != nil {
		d.ErrAfter = err.Error()
	}
	prev := resultValues(prevRep)
	cur := resultValues(rep)
	paths := make([]string, 0, len(prev)+len(cur))
	for p := range prev {
		paths = append(paths, p)
	}
	for p := range cur {
		if _, ok := prev[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		before, hadBefore := prev[p]
		after, hasAfter := cur[p]
		switch {
		case !hadBefore:
			d.Added = append(d.Added, p)
		case !hasAfter:
			d.Removed = append(d.Removed, p)
		case before != after:
			d.Changed = append(d.Changed, OutputDiff{
				Path: p, Before: truncate(before), After: truncate(after),
			})
		}
	}
	if rep != nil && rep.Result != nil {
		for _, st := range rep.Result.Steps {
			if st.Cached {
				d.StepsCached++
			} else {
				d.StepsRun++
			}
		}
	}
	return d
}

// resultValues renders every step-output value of a report.
func resultValues(rep *Report) map[string]string {
	if rep == nil || rep.Result == nil {
		return nil
	}
	out := make(map[string]string, len(rep.Result.Values))
	for path, v := range rep.Result.Values {
		out[path] = renderValue(v)
	}
	return out
}

// renderValue canonicalizes one step-output value for diffing. JSON is
// deterministic (sorted map keys, pointers dereferenced); values JSON
// cannot represent collapse to their type name — also deterministic,
// at the cost of being opaque to the diff.
func renderValue(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<%T>", v)
	}
	return string(b)
}

// truncate bounds a rendered value, keeping truncations
// distinguishing: two different values never truncate to the same
// string, because the suffix carries the full value's length and hash.
func truncate(s string) string {
	if len(s) <= maxDiffValue {
		return s
	}
	n := maxDiffValue
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%s… (%d bytes, fnv %08x)", s[:n], len(s), h.Sum32())
}

// extractAnomalies scans a report's step-output values for
// anomaly-shaped findings, in sorted path order: detected latency
// shifts (core.LatencyFinding), BGP update bursts ([]bgp.Burst), and
// cable-failure verdicts (core.Verdict). The signal Key is
// "kind@path", stable across re-executions of the same plan.
func extractAnomalies(rep *Report) []AnomalySignal {
	if rep == nil || rep.Result == nil {
		return nil
	}
	paths := make([]string, 0, len(rep.Result.Values))
	for p := range rep.Result.Values {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out []AnomalySignal
	for _, p := range paths {
		switch v := rep.Result.Values[p].(type) {
		case LatencyFinding:
			if v.Detected {
				out = append(out, AnomalySignal{
					Key: "latency-shift@" + p, Kind: "latency-shift", Source: p,
					Detail: fmt.Sprintf("latency shift of %.1fms across %d probes (confidence %.2f)",
						v.DeltaMs, len(v.Probes), v.Confidence),
				})
			}
		case []bgp.Burst:
			if len(v) > 0 {
				withdrawHeavy := 0
				for _, b := range v {
					if b.WithdrawHeavy {
						withdrawHeavy++
					}
				}
				out = append(out, AnomalySignal{
					Key: "bgp-burst@" + p, Kind: "bgp-burst", Source: p,
					Detail: fmt.Sprintf("%d BGP update bursts (%d withdrawal-heavy)", len(v), withdrawHeavy),
				})
			}
		case Verdict:
			if v.CauseIsCableFailure {
				out = append(out, AnomalySignal{
					Key: "cable-failure@" + p, Kind: "cable-failure", Source: p,
					Detail: fmt.Sprintf("cable failure verdict: %s (confidence %.2f)", v.Cable, v.Confidence),
				})
			}
		}
	}
	return out
}

// diffAnomalies computes the appeared/cleared signal sets between two
// runs, each sorted by key.
func diffAnomalies(prev, cur []AnomalySignal) (appeared, cleared []AnomalySignal) {
	prevByKey := make(map[string]AnomalySignal, len(prev))
	for _, a := range prev {
		prevByKey[a.Key] = a
	}
	curKeys := make(map[string]bool, len(cur))
	for _, a := range cur {
		curKeys[a.Key] = true
		if _, ok := prevByKey[a.Key]; !ok {
			appeared = append(appeared, a)
		}
	}
	for _, a := range prev {
		if !curKeys[a.Key] {
			cleared = append(cleared, a)
		}
	}
	sort.Slice(appeared, func(i, j int) bool { return appeared[i].Key < appeared[j].Key })
	sort.Slice(cleared, func(i, j int) bool { return cleared[i].Key < cleared[j].Key })
	return appeared, cleared
}
