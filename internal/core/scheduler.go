// Admission: the fairness seam served pipeline runs pass. A Scheduler
// grants a bounded number of concurrent run slots and owns no
// goroutines: a run that finds none free waits in its class's queue as
// a ticket, granted when a slot frees or withdrawn when the run's
// context ends. A System that never calls SetScheduler gets a private
// single-class scheduler for its Submits only, while a serving tier
// shares one Scheduler across many Systems (one per tenant) to get
// weighted-fair grants, per-class concurrency caps and per-class
// admission control for every run — the story the HTTP tier builds on.
//
// Fairness is stride scheduling: each class carries a virtual "pass";
// a free slot goes to the waiting class with the lowest pass, which
// advances by stride/weight, so over time classes receive run slots
// proportional to their weights regardless of how bursty their arrival
// patterns are. A class at its MaxRunning cap simply stops being
// grantable — its pass freezes, so it loses no credit while capped.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// strideScale is the numerator of a class's per-grant pass advance
// (stride = strideScale / weight). Any large constant works; a power of
// two keeps float64 arithmetic exact for small weights.
const strideScale = 1 << 16

// ClassConfig bounds and weights one scheduling class (in the serving
// tier: one tenant).
type ClassConfig struct {
	// Weight is the class's share of run slots relative to the other
	// classes (default 1; non-positive values mean 1).
	Weight int `json:"weight,omitempty"`
	// MaxQueued bounds how many runs of this class may wait for a
	// slot; beyond it a run is shed with ErrJobQueueFull. Zero means
	// bounded only by the scheduler's global depth.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning caps how many runs of this class hold slots at once.
	// Zero means bounded only by the scheduler's slots.
	MaxRunning int `json:"max_running,omitempty"`
}

// weight returns the effective (positive) weight.
func (c ClassConfig) weight() int {
	if c.Weight < 1 {
		return 1
	}
	return c.Weight
}

// ClassStats is the observable state of one scheduling class.
type ClassStats struct {
	Queued     int   `json:"queued"`
	Running    int   `json:"running"`
	Served     int64 `json:"served"`
	Shed       int64 `json:"shed"`
	Weight     int   `json:"weight"`
	MaxQueued  int   `json:"max_queued,omitempty"`
	MaxRunning int   `json:"max_running,omitempty"`
}

// QueueStats is the observable state of a Scheduler.
type QueueStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Workers is the number of concurrent run slots.
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
	// Shed counts runs refused for any reason (global depth or a
	// per-class bound) since construction.
	Shed    int64                 `json:"shed"`
	Classes map[string]ClassStats `json:"classes,omitempty"`
}

// schedClass is one class's queue state: the ready channels of its
// waiting tickets, oldest first.
type schedClass struct {
	name    string
	cfg     ClassConfig
	waiting []chan struct{}
	pass    float64
	running int
	served  int64
	shed    int64
}

// hasRoom reports whether the class is below its MaxRunning cap.
func (c *schedClass) hasRoom() bool {
	return c.cfg.MaxRunning <= 0 || c.running < c.cfg.MaxRunning
}

// Scheduler grants run slots in weighted-fair order. All methods are
// safe for concurrent use. Close stops admission; already-accepted
// runs — granted or waiting — still get their slots (cancel a run's
// context to withdraw it). One Scheduler may be shared by many Systems
// via System.SetScheduler: each run executes on the System that asked
// for it, so tenants keep their own registries and caches while
// competing for one set of slots.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when queued+running falls (Drain)
	slots   int
	depth   int
	closed  bool
	classes map[string]*schedClass
	queued  int
	running int
	vtime   float64
	shed    int64
}

// NewScheduler builds a scheduler with the given number of concurrent
// run slots and global queue depth. Non-positive values take the
// defaults (GOMAXPROCS slots, depth 128).
func NewScheduler(slots, depth int) *Scheduler {
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	if depth < 1 {
		depth = defaultJobQueueDepth
	}
	sc := &Scheduler{slots: slots, depth: depth, classes: make(map[string]*schedClass)}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// SetClass configures (or reconfigures) one scheduling class. Classes
// not configured explicitly come into existence on first use with
// weight 1 and no per-class bounds. SetClass may be called at any time;
// loosening MaxRunning takes effect immediately.
func (sc *Scheduler) SetClass(name string, cfg ClassConfig) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.classLocked(name).cfg = cfg
	sc.grantLocked()
}

// class returns the named class, creating it on first use.
func (sc *Scheduler) class(name string) *schedClass {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.classLocked(name)
}

func (sc *Scheduler) classLocked(name string) *schedClass {
	c, ok := sc.classes[name]
	if !ok {
		c = &schedClass{name: name, pass: sc.vtime}
		sc.classes[name] = c
	}
	return c
}

// ticket is one claim on a run slot of class c: ready is nil when
// granted at once, else closed when the waiting ticket is granted.
type ticket struct {
	c     *schedClass
	ready chan struct{}
}

// enqueue claims a run slot for class c, granted at once when one is
// free and c is below its cap. A run that would wait beyond the global
// depth or c's MaxQueued is shed with ErrJobQueueFull; a closed
// scheduler refuses with ErrJobsClosed. Callers wait, then release.
func (sc *Scheduler) enqueue(c *schedClass) (ticket, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return ticket{}, ErrJobsClosed
	}
	free := sc.running < sc.slots && c.hasRoom()
	if !free {
		if sc.queued >= sc.depth {
			sc.shed++
			return ticket{}, fmt.Errorf("%w (depth %d)", ErrJobQueueFull, sc.depth)
		}
		if c.cfg.MaxQueued > 0 && len(c.waiting) >= c.cfg.MaxQueued {
			c.shed++
			sc.shed++
			return ticket{}, fmt.Errorf("%w (class %q at %d queued)", ErrJobQueueFull, c.name, len(c.waiting))
		}
	}
	// A class that was idle re-joins at the current virtual time so it
	// cannot burn banked credit to starve the others.
	if len(c.waiting) == 0 && c.pass < sc.vtime {
		c.pass = sc.vtime
	}
	if free {
		// Freeing a slot grants what waits, so nothing grantable is
		// queued ahead of c.
		sc.startLocked(c)
		return ticket{c: c}, nil
	}
	ready := make(chan struct{})
	c.waiting = append(c.waiting, ready)
	sc.queued++
	return ticket{c: c, ready: ready}, nil
}

// wait blocks until t's slot is granted (nil) or ctx ends while the
// ticket still waits; the ticket is then withdrawn and ctx's error
// returned. A slot granted just as ctx ends is kept: the run fails on
// ctx itself and releases it.
func (sc *Scheduler) wait(ctx context.Context, t ticket) error {
	if t.ready == nil {
		return nil
	}
	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	i := slices.Index(t.c.waiting, t.ready)
	if i < 0 {
		return nil
	}
	t.c.waiting = slices.Delete(t.c.waiting, i, i+1)
	sc.queued--
	sc.cond.Broadcast()
	return ctx.Err()
}

// release returns a finished run's slot and grants it to the next
// waiting ticket.
func (sc *Scheduler) release(c *schedClass) {
	sc.mu.Lock()
	c.running--
	c.served++
	sc.running--
	sc.grantLocked()
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// startLocked hands c one run slot and advances its pass.
func (sc *Scheduler) startLocked(c *schedClass) {
	c.running++
	sc.running++
	if c.pass > sc.vtime {
		sc.vtime = c.pass
	}
	c.pass += strideScale / float64(c.cfg.weight())
}

// grantLocked hands free slots to waiting tickets, lowest pass first.
func (sc *Scheduler) grantLocked() {
	for sc.queued > 0 && sc.running < sc.slots {
		c := sc.pickLocked()
		if c == nil {
			return
		}
		ready := c.waiting[0]
		c.waiting[0] = nil
		c.waiting = c.waiting[1:]
		sc.queued--
		sc.startLocked(c)
		close(ready)
	}
}

// pickLocked returns the class with a waiting ticket, room under its
// cap and the minimum pass (ties broken by name for determinism), or
// nil when no class qualifies.
func (sc *Scheduler) pickLocked() *schedClass {
	var best *schedClass
	for _, c := range sc.classes {
		if len(c.waiting) == 0 || !c.hasRoom() {
			continue
		}
		if best == nil || c.pass < best.pass || (c.pass == best.pass && c.name < best.name) {
			best = c
		}
	}
	return best
}

// Close stops admission: subsequent runs are refused with
// ErrJobsClosed. Already-accepted runs — granted or waiting — complete
// normally. Close is idempotent and returns without waiting; pair it
// with Drain for a graceful stop.
func (sc *Scheduler) Close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
}

// Drain blocks until no run is queued or running, or ctx is done. It
// does not itself stop admission — close the submitting Systems (or the
// Scheduler) first, then Drain, for the shutdown sequence a server
// wants: refuse new work, finish accepted work, exit.
func (sc *Scheduler) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Broadcast under the lock so the wakeup cannot slip between a
	// waiter's ctx check and its Wait and be lost.
	stop := context.AfterFunc(ctx, func() {
		sc.mu.Lock()
		sc.cond.Broadcast()
		sc.mu.Unlock()
	})
	defer stop()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for sc.queued+sc.running > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.cond.Wait()
	}
	return nil
}

// Stats snapshots the scheduler's observable state.
func (sc *Scheduler) Stats() QueueStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := QueueStats{
		Queued:  sc.queued,
		Running: sc.running,
		Workers: sc.slots,
		Depth:   sc.depth,
		Shed:    sc.shed,
		Classes: make(map[string]ClassStats, len(sc.classes)),
	}
	for name, c := range sc.classes {
		out.Classes[name] = ClassStats{
			Queued:     len(c.waiting),
			Running:    c.running,
			Served:     c.served,
			Shed:       c.shed,
			Weight:     c.cfg.weight(),
			MaxQueued:  c.cfg.MaxQueued,
			MaxRunning: c.cfg.MaxRunning,
		}
	}
	return out
}
