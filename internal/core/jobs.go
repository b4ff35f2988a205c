// Async serving: a bounded-queue job subsystem that turns one System
// into a long-lived server. Submit claims a run slot from the System's
// Scheduler (see scheduler.go) and returns a Job immediately; the job
// runs on its own goroutine once the slot is granted, through the same
// event-emitting pipeline that backs Ask and AskStream, recording its
// events in a replayable log. Jobs are tracked (Jobs), observable
// (Events), awaitable (Wait) and cancellable (Cancel) — queued or
// mid-run. By default each System gets a private single-class
// scheduler (plain bounded FIFO) for its jobs; SetScheduler attaches a
// shared weighted-fair one instead, the seam the multi-tenant HTTP tier
// uses, and then admits every blocking run through it as well. A
// blocking run takes a slot and runs inline: it creates no Job.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	// JobQueued: accepted, waiting for a run slot.
	JobQueued JobState = "queued"
	// JobRunning: the job holds a slot and is executing the pipeline.
	JobRunning JobState = "running"
	// JobDone: finished — successfully or with an error (see Wait).
	JobDone JobState = "done"
	// JobCancelled: cancelled before or during execution.
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool { return st == JobDone || st == JobCancelled }

const (
	// defaultJobQueueDepth bounds how many runs may wait for a slot
	// before the scheduler starts refusing with ErrJobQueueFull.
	defaultJobQueueDepth = 128
	// maxRetainedJobs bounds how many finished jobs Jobs() remembers;
	// older finished jobs are pruned so a long-lived server's job
	// table stays flat. In-flight jobs are never pruned.
	maxRetainedJobs = 1024
)

// Job is one asynchronously-served query. All methods are safe for
// concurrent use.
type Job struct {
	id    uint64
	query string
	opts  []AskOption
	// class is the scheduling class the System was attached under
	// (empty for a private scheduler).
	class string

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	events    []Event
	state     JobState
	cancelled bool
	report    *Report
	err       error
	done      chan struct{}
}

// ID is the job's submission-ordered identifier, unique per System.
func (j *Job) ID() uint64 { return j.id }

// Query returns the job's natural-language query.
func (j *Job) Query() string { return j.query }

// Class returns the scheduling class the job was submitted under
// (empty unless the System is attached to a shared Scheduler).
func (j *Job) Class() string { return j.class }

// JobSummary is a serialization-friendly snapshot of one job, the
// shape the HTTP tier returns from its job-listing endpoints.
type JobSummary struct {
	ID    uint64   `json:"id"`
	Query string   `json:"query"`
	Class string   `json:"class,omitempty"`
	State JobState `json:"state"`
	// Error is the terminal error text, empty while in flight or on
	// success.
	Error string `json:"error,omitempty"`
	// Elapsed is the finished run's wall-clock time in nanoseconds
	// (JSON's default encoding for time.Duration); zero while in
	// flight.
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

// Summary snapshots the job without blocking.
func (j *Job) Summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := JobSummary{ID: j.id, Query: j.query, Class: j.class, State: j.state}
	if j.state.terminal() {
		if j.err != nil {
			out.Error = j.err.Error()
		}
		if j.report != nil {
			out.Elapsed = j.report.Elapsed
		}
	}
	return out
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state;
// it composes with select the way context.Done does.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes (or ctx is cancelled) and returns
// the job's report and error, exactly as a blocking Ask would have. A
// nil ctx waits indefinitely.
func (j *Job) Wait(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.report, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel stops the job: a queued job completes immediately with
// context.Canceled and never runs; a running job has its pipeline
// cancelled mid-flight. Cancel is idempotent and a no-op on finished
// jobs.
func (j *Job) Cancel() {
	j.mu.Lock()
	if !j.state.terminal() {
		j.cancelled = true
	}
	j.abandonLocked(context.Canceled)
	j.mu.Unlock()
	j.cancel()
}

// abandonLocked ends a job that never ran with err, recording a
// synthesized terminal Done so Events subscribers of a never-run job
// still observe one. A job that started is left alone.
func (j *Job) abandonLocked(err error) {
	if j.state != JobQueued {
		return
	}
	ev := &Done{Err: err}
	ev.Query, ev.Time = j.query, time.Now()
	j.events = append(j.events, ev)
	j.finishLocked(nil, err)
}

// subscriberGrace bounds how long a replay goroutine waits on a
// non-draining subscriber after the job's context is released (the job
// finished or was cancelled). Live subscribers drain well within it;
// abandoned ones stop leaking a goroutine after it.
const subscriberGrace = 5 * time.Second

// Events returns a channel that replays the job's event stream from
// the beginning — late subscribers see the full history — then follows
// it live and closes after the terminal Done event. Each call gets an
// independent channel; multiple subscribers may watch one job. The
// caller should drain the channel: once the job reaches a terminal
// state, a subscriber that stops reading forfeits remaining events
// after a grace period and the channel closes.
func (j *Job) Events() <-chan Event {
	return replayLog(&j.mu, j.cond, &j.events, func() bool { return j.state.terminal() }, j.ctx.Done())
}

// replayLog streams an append-only event log to a fresh channel: every
// event from the first, then each new one as it is appended, closing
// once terminal reports true and the log is drained. mu guards *log
// and terminal's state; cond (on mu) must be broadcast on every append
// and on the terminal transition. Each event goes out through deliver
// with live as its liveness signal (the log decouples the producer, so
// a slow consumer never stalls it); a consumer that outlasts the grace
// period ends the replay.
func replayLog[E any](mu *sync.Mutex, cond *sync.Cond, log *[]E, terminal func() bool, live <-chan struct{}) <-chan E {
	ch := make(chan E, streamBuffer)
	go func() {
		defer close(ch)
		for i := 0; ; i++ {
			mu.Lock()
			for i == len(*log) && !terminal() {
				cond.Wait()
			}
			if i == len(*log) {
				mu.Unlock()
				return
			}
			ev := (*log)[i]
			mu.Unlock()
			if !deliver(ch, ev, live) {
				return
			}
		}
	}()
	return ch
}

// deliver sends ev to a stream consumer and reports whether it was
// taken. It prefers the consumer: a ready receiver or buffer space
// always wins, even once live has closed, so a draining consumer never
// loses an event to a race with live. Until live closes the send
// blocks; after that a bounded grace period separates slow consumers
// from abandoned ones, and false means the consumer is gone.
func deliver[E any](ch chan<- E, ev E, live <-chan struct{}) bool {
	select {
	case ch <- ev:
		return true
	default:
	}
	select {
	case ch <- ev:
		return true
	case <-live:
	}
	t := time.NewTimer(subscriberGrace)
	defer t.Stop()
	select {
	case ch <- ev:
		return true
	case <-t.C:
		return false
	}
}

// record appends one pipeline event to the job's log (the emitter sink
// for job runs) and wakes subscribers.
func (j *Job) record(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finishLocked moves a job that holds no run slot to its terminal
// state and releases its waiters.
func (j *Job) finishLocked(rep *Report, err error) {
	if j.state.terminal() {
		return
	}
	j.settleLocked(rep, err)
	close(j.done)
}

// settleLocked records the job's outcome and terminal state and wakes
// event subscribers; Wait and Done still block until done closes.
func (j *Job) settleLocked(rep *Report, err error) {
	j.report, j.err = rep, err
	// A job is JobCancelled only when it actually failed because of
	// cancellation — via Job.Cancel or the Submit parent context. A
	// run that completed successfully is JobDone even if a Cancel
	// raced its final moments, and a run that failed for an unrelated
	// reason is JobDone-with-error even if a Cancel raced the failure.
	if err != nil && errors.Is(err, context.Canceled) && (j.cancelled || j.ctx.Err() != nil) {
		j.state = JobCancelled
	} else {
		j.state = JobDone
	}
	j.cond.Broadcast()
}

// jobTable is the System's serving state: the scheduler the System
// takes run slots from (private by default, shared via SetScheduler)
// and the submission-ordered job index.
type jobTable struct {
	mu      sync.Mutex
	workers int
	depth   int
	sched   *Scheduler
	class   *schedClass // the class runs take slots under; set with sched
	// shared is class once a shared Scheduler is attached; blocking
	// runs read it without mu (see admitted).
	shared atomic.Pointer[schedClass]
	closed atomic.Bool
	nextID uint64
	jobs   []*Job
}

// SetJobLimits configures the private scheduler Submit uses: workers
// is the number of concurrent job runs, depth the bound of the waiting
// queue. Non-positive values keep the defaults (GOMAXPROCS slots,
// depth 128). It must be called before the first Submit (and is
// mutually exclusive with SetScheduler — a shared scheduler brings its
// own slots); afterwards it fails with ErrJobsStarted.
func (s *System) SetJobLimits(workers, depth int) error {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	if s.jobs.sched != nil {
		return ErrJobsStarted
	}
	s.jobs.workers = workers
	s.jobs.depth = depth
	return nil
}

// SetScheduler attaches the System to a shared Scheduler under the
// given scheduling class: subsequent runs — Submits and blocking calls
// alike — compete for its run slots by the class's weight and bounds,
// while the System keeps its own registry, caches and job table — the
// isolation seam the multi-tenant serving tier builds on. It must be
// called before the first Submit; afterwards (or after a previous
// attach) it fails with ErrJobsStarted.
func (s *System) SetScheduler(sc *Scheduler, class string) error {
	if sc == nil {
		return fmt.Errorf("core: nil scheduler")
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	if s.jobs.sched != nil {
		return ErrJobsStarted
	}
	s.jobs.sched = sc
	s.jobs.class = sc.class(class)
	s.jobs.shared.Store(s.jobs.class)
	return nil
}

// Submit enqueues a query for asynchronous execution and returns its
// Job immediately; the job runs on its own goroutine once its run slot
// is granted. If the bounded queue (global depth, or the System's
// class bound on a shared scheduler) is full, Submit fails fast with
// ErrJobQueueFull rather than blocking the caller — shed load or retry
// later. Cancelling ctx cancels the job, queued (its slot claim is
// withdrawn) or running; per-call AskOptions apply when the job runs.
func (s *System) Submit(ctx context.Context, query string, opts ...AskOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		query:  query,
		opts:   opts,
		ctx:    jctx,
		cancel: cancel,
		state:  JobQueued,
		done:   make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)

	s.jobs.mu.Lock()
	if s.jobs.closed.Load() {
		s.jobs.mu.Unlock()
		cancel()
		return nil, ErrJobsClosed
	}
	s.ensureSchedulerLocked()
	j.class = s.jobs.class.name
	t, err := s.jobs.sched.enqueue(s.jobs.class)
	if err != nil {
		s.jobs.mu.Unlock()
		cancel()
		return nil, err
	}
	s.jobs.nextID++
	j.id = s.jobs.nextID
	s.jobs.jobs = append(s.jobs.jobs, j)
	s.pruneJobsLocked()
	sc := s.jobs.sched
	s.jobs.mu.Unlock()
	go s.serveJob(sc, t, j)
	return j, nil
}

// Close shuts the System's serving down: subsequent Submits, Subscribes
// and — on a System attached to a shared Scheduler — blocking calls
// fail with ErrJobsClosed, already-accepted runs complete normally
// (use Cancel or the run's context to abort them), and every live
// subscription is closed (its streams end with a terminal
// SubscriptionClosed event). A shared scheduler is left running for
// its other Systems. Close is idempotent, safe to call concurrently
// with Submit (the shutdown path races them by design), and waits only
// for subscription loops (not in-flight runs).
func (s *System) Close() {
	s.jobs.mu.Lock()
	closed := s.jobs.closed.Swap(true)
	s.jobs.mu.Unlock()
	if closed {
		return
	}
	for _, sub := range s.Subscriptions() {
		sub.closeWith("system closed")
	}
}

// Jobs returns a snapshot of tracked jobs in submission order: every
// queued and running job, plus up to maxRetainedJobs finished ones.
func (s *System) Jobs() []*Job {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	out := make([]*Job, len(s.jobs.jobs))
	copy(out, s.jobs.jobs)
	return out
}

// ensureSchedulerLocked creates the System's private scheduler on
// first use, applying configured or default limits. A scheduler
// attached with SetScheduler takes precedence. Callers hold jobs.mu.
func (s *System) ensureSchedulerLocked() {
	if s.jobs.sched != nil {
		return
	}
	s.jobs.sched = NewScheduler(s.jobs.workers, s.jobs.depth)
	s.jobs.class = s.jobs.sched.class("")
}

// pruneJobsLocked drops the oldest finished jobs beyond the retention
// bound and releases their contexts. In-flight jobs always survive:
// their combined count is bounded by queue depth + run slots, which is
// far below maxRetainedJobs under the defaults. The table is compacted
// in place, so a full table prunes and refills without reallocating.
func (s *System) pruneJobsLocked() {
	jobs := s.jobs.jobs
	excess := len(jobs) - maxRetainedJobs
	if excess <= 0 {
		return
	}
	kept := jobs[:0]
	for _, j := range jobs {
		if excess > 0 && j.State().terminal() {
			j.cancel()
			excess--
			continue
		}
		kept = append(kept, j)
	}
	clear(jobs[len(kept):])
	s.jobs.jobs = kept
}

// serveJob is a submitted job's goroutine: it waits for the job's run
// slot, runs the shared event-emitting pipeline with the job's event
// log as the sink, and hands the slot back. A job whose context ends
// while it waits withdraws its claim and ends without running.
func (s *System) serveJob(sc *Scheduler, t ticket, j *Job) {
	if err := sc.wait(j.ctx, t); err != nil {
		j.mu.Lock()
		j.abandonLocked(err)
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	if j.state != JobQueued { // cancelled as its slot was granted
		j.mu.Unlock()
		sc.release(t.c)
		return
	}
	j.state = JobRunning
	j.mu.Unlock()

	cfg := newAskConfig(j.opts)
	em := &emitter{query: j.query, observers: cfg.observers, sink: j.record}
	rep, err := s.run(j.ctx, j.query, cfg, em)
	em.emit(&Done{Report: rep, Err: err})
	j.mu.Lock()
	j.settleLocked(rep, err)
	j.mu.Unlock()
	// The slot goes back between settling and closing done, so Drain
	// sees a finished job and Wait a free slot and a served run.
	sc.release(t.c)
	close(j.done)
	// Release the job's context now that the run is over: this
	// unchains it from the Submit parent (no accumulation under a
	// long-lived server ctx) and starts the grace clock for any
	// abandoned Events subscribers.
	j.cancel()
}

// admitted runs one blocking pipeline call (Ask, AskStream), first
// taking a run slot on a System attached to a shared Scheduler. A
// closed System, a full queue or ctx ending while it waits fails the
// call before any stage runs, with that error as is and a nil Report.
func (s *System) admitted(ctx context.Context, query string, cfg askConfig, em *emitter) (*Report, error) {
	c := s.jobs.shared.Load()
	if c == nil {
		return s.run(ctx, query, cfg, em)
	}
	if s.jobs.closed.Load() {
		return nil, ErrJobsClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sc := s.jobs.sched
	t, err := sc.enqueue(c)
	if err != nil {
		return nil, err
	}
	if err := sc.wait(ctx, t); err != nil {
		return nil, err
	}
	defer sc.release(c)
	return s.run(ctx, query, cfg, em)
}
