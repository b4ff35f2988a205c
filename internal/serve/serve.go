// Package serve is ArachNet's network serving tier: an HTTP/JSON +
// SSE front end that turns the in-process serving surfaces (Ask,
// Submit, Job event logs, cache stats) into a multi-tenant service —
// the SONoMA direction of a measurement architecture shared by many
// callers.
//
// One Server owns one simulated world (a *core.Environment) and any
// number of tenants. Isolation is structural rather than policed:
//
//   - Each tenant gets its own *core.System over its own registry view
//     (Registry.Clone or Subset of a shared base catalog), so one
//     tenant's curator promotions never appear in another's plans.
//   - Each tenant serves its own Environment clone over the shared
//     immutable world, so scenario injections (POST /v1/admin/scenario)
//     and the standing-query wake-ups they cause are per-tenant: one
//     tenant's epoch bump never fires another tenant's subscriptions.
//   - Each System carries its own plan and step caches, bounded by
//     per-tenant quotas (SetCacheLimits), so cached plans and step
//     results cannot leak across tenants and one tenant cannot evict
//     another's working set.
//   - All tenants share one weighted-fair core.Scheduler granting run
//     slots to jobs, synchronous asks and subscription runs alike (the
//     latter two run inline, with no job): per-tenant weights, queue
//     bounds and concurrency caps give admission control and fair
//     grants. Shed requests surface as HTTP 429 with Retry-After.
//
// Endpoints (see handlers.go): POST /v1/ask (synchronous), POST
// /v1/jobs + GET /v1/jobs/{id}/events (SSE streaming, replayable),
// DELETE /v1/jobs/{id} (cancel), GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/stats, GET /healthz; and for continuous monitoring (see
// subscriptions.go): POST/GET /v1/subscriptions, GET
// /v1/subscriptions/{id}, GET /v1/subscriptions/{id}/events (SSE
// delta stream; disconnect unsubscribes unless ?detach=1), DELETE
// /v1/subscriptions/{id}, POST /v1/admin/scenario.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/fleet"
	"arachnet/internal/fleetwire"
	"arachnet/internal/registry"
)

// TenantConfig declares one tenant: identity, optional bearer token,
// scheduling share, and cache quotas. The zero values of the bounds
// mean "library defaults".
type TenantConfig struct {
	Name string `json:"name"`
	// Token, when set, must be presented as "Authorization: Bearer
	// <token>" on every request for this tenant.
	Token string `json:"token,omitempty"`
	// Weight is the tenant's share of run slots (default 1).
	Weight int `json:"weight,omitempty"`
	// MaxRunning caps the tenant's concurrent pipeline runs (0 =
	// bounded only by the scheduler's slots).
	MaxRunning int `json:"max_running,omitempty"`
	// MaxQueued bounds the tenant's runs waiting for a slot; beyond it
	// requests are shed with 429 (0 = only the global queue depth).
	MaxQueued int `json:"max_queued,omitempty"`
	// Cache quotas; zero means the library default for that bound.
	PlanCacheEntries int   `json:"plan_cache_entries,omitempty"`
	StepCacheEntries int   `json:"step_cache_entries,omitempty"`
	StepCacheBytes   int64 `json:"step_cache_bytes,omitempty"`
	// Capabilities restricts the tenant to a named Subset of the base
	// catalog; empty means a full Clone.
	Capabilities []string `json:"capabilities,omitempty"`
}

// Config assembles a Server.
type Config struct {
	// Env is the simulated world tenants measure. Required. Each
	// tenant serves its own clone of it: the generated world is
	// shared, but scenario injections and the mutation epoch are
	// per-tenant (see Environment.Clone).
	Env *core.Environment
	// BaseRegistry is the catalog template tenant views are built from
	// (Clone/Subset per tenant); nil means the builtin catalog.
	BaseRegistry *registry.Registry
	// Workers and QueueDepth size the shared scheduler: run slots and
	// queue depth (defaults: GOMAXPROCS slots, depth 128).
	Workers    int
	QueueDepth int
	// DefaultTimeout bounds each served call's pipeline time when the
	// request doesn't choose its own (0 = unbounded). MaxTimeout caps
	// what a request may ask for (0 = uncapped).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Fleet, when positive, attaches a sharded worker fleet of that
	// many workers to every tenant System: pure fan-out steps are
	// scattered over world shards and gathered deterministically
	// instead of running inline (see internal/fleet). Per-tenant
	// fleets keep worker-cache isolation aligned with the rest of the
	// tenancy model. /v1/stats exposes each tenant's per-worker shard
	// and cache counters.
	Fleet int
	// FleetRemote routes each tenant's fleet over the wire instead:
	// one arachnet-worker address per shard (see internal/fleetwire).
	// Takes precedence over Fleet. Each tenant keeps its own Pool —
	// registration, health checks and failover counters are per
	// tenant, matching the isolation the rest of the tier provides.
	FleetRemote []string
	// Tenants declares the tenant set; empty means one open tenant
	// named "default".
	Tenants []TenantConfig
	// CallOptions are prepended to every served call — an operator
	// seam for server-wide serving policy (and the test seam for
	// gating runs).
	CallOptions []core.AskOption
}

// Tenant is one isolated serving context: its own System (registry
// view + caches + job table) attached to the shared scheduler under
// its own class.
type Tenant struct {
	cfg TenantConfig
	sys *core.System
}

// Name returns the tenant's identity.
func (t *Tenant) Name() string { return t.cfg.Name }

// System exposes the tenant's isolated System.
func (t *Tenant) System() *core.System { return t.sys }

// Server is the HTTP serving tier. Create with NewServer, expose with
// Handler (or use it as an http.Handler directly), stop with Shutdown.
type Server struct {
	cfg     Config
	sched   *core.Scheduler
	tenants map[string]*Tenant
	byToken map[string]*Tenant
	single  *Tenant // set when exactly one tenant exists
	anyAuth bool    // any tenant requires a token
	mux     *http.ServeMux
	closed  atomic.Bool
	// answers memoizes warm /v1/ask summaries per cached plan. It is a
	// separate allocation because its cleanups hold it: they must not
	// keep the Server, and through it the plans, alive.
	answers *answerMemo

	// jobCtx parents detached jobs (POST /v1/jobs), which must outlive
	// their submitting request; cancelJobs aborts them if a drain
	// deadline expires.
	jobCtx     context.Context
	cancelJobs context.CancelFunc
}

// NewServer builds the serving tier: one System per tenant over a
// cloned registry view with its own cache quotas, all attached to one
// weighted-fair scheduler.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("serve: config needs an environment")
	}
	base := cfg.BaseRegistry
	if base == nil {
		base = core.BuiltinRegistry()
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []TenantConfig{{Name: "default"}}
	}
	s := &Server{
		cfg:     cfg,
		sched:   core.NewScheduler(cfg.Workers, cfg.QueueDepth),
		tenants: make(map[string]*Tenant, len(cfg.Tenants)),
		byToken: make(map[string]*Tenant),
		mux:     http.NewServeMux(),
		answers: new(answerMemo),
	}
	s.jobCtx, s.cancelJobs = context.WithCancel(context.Background())
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		var (
			view *registry.Registry
			err  error
		)
		if len(tc.Capabilities) > 0 {
			view, err = base.Subset(tc.Capabilities...)
			if err != nil {
				return nil, fmt.Errorf("serve: tenant %q: %w", tc.Name, err)
			}
		} else {
			view = base.Clone()
		}
		// The clone shares the immutable world but owns its mutation
		// timeline, so admin scenario injections only wake this
		// tenant's standing queries.
		sys, err := core.NewSystem(cfg.Env.Clone(), view)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", tc.Name, err)
		}
		sys.SetCacheLimits(
			defaultInt(tc.PlanCacheEntries, core.DefaultPlanCacheEntries),
			defaultInt(tc.StepCacheEntries, core.DefaultStepCacheEntries),
			defaultInt64(tc.StepCacheBytes, core.DefaultStepCacheBytes),
		)
		if err := sys.SetScheduler(s.sched, tc.Name); err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", tc.Name, err)
		}
		switch {
		case len(cfg.FleetRemote) > 0:
			f, err := fleetwire.NewFleet(cfg.Env.World, cfg.FleetRemote, fleetwire.Config{})
			if err != nil {
				return nil, fmt.Errorf("serve: tenant %q remote fleet: %w", tc.Name, err)
			}
			sys.SetFleet(f)
		case cfg.Fleet > 0:
			f, err := fleet.New(cfg.Env.World, fleet.Config{Workers: cfg.Fleet})
			if err != nil {
				return nil, fmt.Errorf("serve: tenant %q fleet: %w", tc.Name, err)
			}
			sys.SetFleet(f)
		}
		s.sched.SetClass(tc.Name, core.ClassConfig{
			Weight:     tc.Weight,
			MaxQueued:  tc.MaxQueued,
			MaxRunning: tc.MaxRunning,
		})
		t := &Tenant{cfg: tc, sys: sys}
		s.tenants[tc.Name] = t
		if tc.Token != "" {
			if _, dup := s.byToken[tc.Token]; dup {
				return nil, fmt.Errorf("serve: tenant %q reuses another tenant's token", tc.Name)
			}
			s.byToken[tc.Token] = t
			s.anyAuth = true
		}
	}
	if len(cfg.Tenants) == 1 {
		s.single = s.tenants[cfg.Tenants[0].Name]
	}
	s.routes()
	return s, nil
}

func defaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defaultInt64(v, def int64) int64 {
	if v == 0 {
		return def
	}
	return v
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the shared scheduler (stats, tests).
func (s *Server) Scheduler() *core.Scheduler { return s.sched }

// Tenant returns a tenant by name, or nil.
func (s *Server) Tenant(name string) *Tenant { return s.tenants[name] }

// Shutdown drains the serving tier: new runs are refused (every tenant
// System is closed), accepted runs — queued or holding a slot, async
// jobs and synchronous asks alike — finish, and the scheduler closes.
// If ctx expires first, the remaining detached jobs are cancelled and
// ctx's error returned; synchronous asks are tied to their request
// contexts and die with their connections. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	for _, t := range s.tenants {
		t.sys.Close()
	}
	err := s.sched.Drain(ctx)
	defer func() {
		// Fleets stop after the drain so in-flight dispatched steps
		// finish on their workers rather than erroring mid-run.
		for _, t := range s.tenants {
			if f := t.sys.Fleet(); f != nil {
				f.Close()
			}
		}
	}()
	if err != nil {
		// Past the deadline: abort detached jobs so their slots free.
		s.cancelJobs()
		drainCtx, cancel := context.WithTimeout(context.Background(), subsecond(ctx))
		_ = s.sched.Drain(drainCtx)
		cancel()
	}
	s.cancelJobs()
	s.sched.Close()
	return err
}

// subsecond returns a short grace for the post-cancel drain, never
// exceeding one second.
func subsecond(ctx context.Context) time.Duration {
	const grace = time.Second
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 && rem < grace {
			return rem
		}
	}
	return grace
}
