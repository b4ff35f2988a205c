// Async serving: a bounded-queue job subsystem that turns one System
// into a long-lived server. Submit enqueues a query and returns a Job
// immediately; a lazily-started worker pool (owned by a Scheduler, see
// scheduler.go) drains the queue through the same event-emitting
// pipeline that backs Ask and AskStream. Jobs are tracked (Jobs),
// observable (Events), awaitable (Wait) and cancellable (Cancel) —
// queued or mid-run. By default each System gets a private single-class
// scheduler (plain bounded FIFO); SetScheduler attaches a shared
// weighted-fair one instead, the seam the multi-tenant HTTP tier uses.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing the pipeline.
	JobRunning JobState = "running"
	// JobDone: finished — successfully or with an error (see Wait).
	JobDone JobState = "done"
	// JobCancelled: cancelled before or during execution.
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool { return st == JobDone || st == JobCancelled }

const (
	// defaultJobQueueDepth bounds how many jobs may wait for a worker
	// before Submit starts refusing with ErrJobQueueFull.
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
	// sys is the System that submitted the job: scheduler workers run
	// each job on its own System, so a shared pool serves many isolated
	// registries and caches. class is the scheduling class the System
	// was attached under (empty for a private scheduler).
	sys   *System
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
	if j.state == JobQueued {
		j.cancelled = true
		j.events = append(j.events, j.jobDoneEvent())
		j.finishLocked(nil, context.Canceled)
		j.mu.Unlock()
		j.cancel()
		return
	}
	if j.state == JobRunning {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
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
// and on the terminal transition. Delivery prefers the consumer: a
// ready receiver or buffer space always wins. Until live closes a send
// blocks (the log decouples the producer, so a slow consumer never
// stalls it); after that, a bounded grace period separates slow
// consumers from abandoned ones.
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
			select {
			case ch <- ev:
				continue
			default:
			}
			select {
			case ch <- ev:
				continue
			case <-live:
			}
			t := time.NewTimer(subscriberGrace)
			select {
			case ch <- ev:
				t.Stop()
			case <-t.C:
				return
			}
		}
	}()
	return ch
}

// record appends one pipeline event to the job's log (the emitter sink
// for job runs) and wakes subscribers.
func (j *Job) record(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish moves the job to its terminal state.
func (j *Job) finish(rep *Report, err error) {
	j.mu.Lock()
	j.finishLocked(rep, err)
	j.mu.Unlock()
}

func (j *Job) finishLocked(rep *Report, err error) {
	if j.state.terminal() {
		return
	}
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
	close(j.done)
	j.cond.Broadcast()
}

// jobTable is the System's async serving state: the scheduler the
// System routes jobs through (private by default, shared via
// SetScheduler) and the submission-ordered job index.
type jobTable struct {
	mu      sync.Mutex
	workers int
	depth   int
	sched   *Scheduler
	// private marks a scheduler this System created for itself (and so
	// owns: Close closes it). An attached shared scheduler is left
	// running for its other Systems.
	private bool
	class   string
	closed  bool
	nextID  uint64
	jobs    []*Job
}

// SetJobLimits configures the private async serving pool: workers is
// the number of concurrent pipeline runs, depth the bound of the
// waiting queue. Non-positive values keep the defaults (GOMAXPROCS
// workers, depth 128). It must be called before the first Submit (and
// is mutually exclusive with SetScheduler — a shared scheduler brings
// its own pool); afterwards it fails with ErrJobsStarted.
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
// given scheduling class: subsequent Submits compete for the shared
// worker pool according to the class's weight and bounds, while the
// System keeps its own registry, caches and job table — the isolation
// seam the multi-tenant serving tier builds on. It must be called
// before the first Submit; afterwards (or after a previous attach) it
// fails with ErrJobsStarted.
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
	s.jobs.class = class
	return nil
}

// Submit enqueues a query for asynchronous execution and returns its
// Job immediately. The first Submit starts the worker pool. If the
// bounded queue (global depth, or the System's class bound on a shared
// scheduler) is full, Submit fails fast with ErrJobQueueFull rather
// than blocking the caller — shed load or retry later. Cancelling ctx
// cancels the job, queued or running; per-call AskOptions apply when
// the job runs.
func (s *System) Submit(ctx context.Context, query string, opts ...AskOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		query:  query,
		opts:   opts,
		sys:    s,
		ctx:    jctx,
		cancel: cancel,
		state:  JobQueued,
		done:   make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)

	s.jobs.mu.Lock()
	if s.jobs.closed {
		s.jobs.mu.Unlock()
		cancel()
		return nil, ErrJobsClosed
	}
	s.ensureSchedulerLocked()
	j.class = s.jobs.class
	if err := s.jobs.sched.enqueue(j); err != nil {
		s.jobs.mu.Unlock()
		cancel()
		return nil, err
	}
	s.jobs.nextID++
	j.id = s.jobs.nextID
	s.jobs.jobs = append(s.jobs.jobs, j)
	s.pruneJobsLocked()
	s.jobs.mu.Unlock()
	return j, nil
}

// Close shuts the System's async serving down: subsequent Submits and
// Subscribes fail with ErrJobsClosed, already-accepted jobs — queued
// or running — complete normally (use Cancel to abort them), and every
// live subscription is closed (its streams end with a terminal
// SubscriptionClosed event). A private scheduler is closed with the
// System (its workers exit once the queue drains); a shared scheduler
// attached with SetScheduler is left running for its other Systems.
// Close is idempotent, safe to call concurrently with Submit (the
// shutdown path races them by design), waits only for subscription
// loops (not in-flight jobs), and leaves the blocking surfaces (Ask,
// AskStream, AskBatch) untouched.
func (s *System) Close() {
	s.jobs.mu.Lock()
	if s.jobs.closed {
		s.jobs.mu.Unlock()
		return
	}
	s.jobs.closed = true
	if s.jobs.private && s.jobs.sched != nil {
		s.jobs.sched.Close()
	}
	s.jobs.mu.Unlock()
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
	s.jobs.private = true
}

// pruneJobsLocked drops the oldest finished jobs beyond the retention
// bound and releases their contexts. In-flight jobs always survive:
// their combined count is bounded by queue depth + workers, which is
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

// Release drops a finished job from the job table ahead of the
// retention bound and releases its context, so Jobs no longer lists
// it. A caller that consumed the job's outcome itself — a synchronous
// ask waiting on its own job — releases it so answered jobs do not
// keep their event logs and reports alive until pruned. Queued and
// running jobs, and jobs no longer tracked, are left alone.
func (s *System) Release(j *Job) {
	if !j.State().terminal() {
		return
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	// Searched from the newest end: a releasing caller has usually just
	// waited on the job.
	for i := len(s.jobs.jobs) - 1; i >= 0; i-- {
		if s.jobs.jobs[i] == j {
			s.jobs.jobs = slices.Delete(s.jobs.jobs, i, i+1)
			j.cancel()
			return
		}
	}
}

// serveJob runs one dequeued job through the shared event-emitting
// pipeline with the job's event log as the sink. Scheduler workers
// call it on the job's own System.
func (s *System) serveJob(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.mu.Unlock()

	cfg := newAskConfig(j.opts)
	em := &emitter{query: j.query, observers: cfg.observers, sink: j.record}
	rep, err := s.run(j.ctx, j.query, cfg, em)
	em.emit(&Done{Report: rep, Err: err})
	j.finish(rep, err)
	// Release the job's context now that the run is over: this
	// unchains it from the Submit parent (no accumulation under a
	// long-lived server ctx) and starts the grace clock for any
	// abandoned Events subscribers.
	j.cancel()
}

// jobDoneEvent synthesizes the terminal event for jobs cancelled while
// queued, so Events subscribers of a never-run job still observe Done.
func (j *Job) jobDoneEvent() *Done {
	ev := &Done{Err: context.Canceled}
	ev.Query, ev.Time = j.query, time.Now()
	return ev
}
