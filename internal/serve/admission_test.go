package serve

// Admission through the HTTP tier: synchronous asks and subscription
// runs take run slots from the shared scheduler inline, so they wait,
// withdraw and drain like jobs without ever becoming one.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"arachnet/internal/core"
)

// queueStats fetches the shared scheduler's state over /v1/stats.
func queueStats(t testing.TB, base string) core.QueueStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Queue core.QueueStats `json:"queue"`
	}
	decodeBody(t, resp, &stats)
	return stats.Queue
}

// awaitQueue polls /v1/stats until pred holds for the queue state.
func awaitQueue(t testing.TB, base, what string, pred func(core.QueueStats) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if pred(queueStats(t, base)) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("queue never reached %s: %+v", what, queueStats(t, base))
}

// asyncAsk posts a synchronous ask on its own goroutine and delivers
// the response status (0 when the request itself failed).
func asyncAsk(ctx context.Context, base string) <-chan int {
	out := make(chan int, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ask",
			strings.NewReader(fmt.Sprintf(`{"query":%q}`, queryCS1)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- 0
			return
		}
		resp.Body.Close()
		out <- resp.StatusCode
	}()
	return out
}

// plugTenant starts a server whose single tenant may run one pipeline
// at a time and pins a submitted job at the gate, so the next run of
// that tenant has to wait for the slot.
func plugTenant(t *testing.T, gate <-chan struct{}) (*Tenant, *httptest.Server, core.JobSummary) {
	t.Helper()
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: gatedRegistry(t, gate),
		Tenants:      []TenantConfig{{Name: "t", MaxRunning: 1}},
	})
	tn := srv.Tenant("t")
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	var plug core.JobSummary
	decodeBody(t, resp, &plug)
	awaitJobState(t, tn, plug.ID, core.JobRunning)
	return tn, ts, plug
}

func TestSyncAskWaitsForRunSlot(t *testing.T) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	tn, ts, plug := plugTenant(t, gate)

	status := asyncAsk(context.Background(), ts.URL)
	awaitQueue(t, ts.URL, "one queued ask", func(q core.QueueStats) bool {
		return q.Queued == 1 && q.Classes["t"].Queued == 1 && q.Running == 1
	})
	select {
	case code := <-status:
		t.Fatalf("ask answered %d while its class was at MaxRunning", code)
	default:
	}

	closeGate()
	if code := <-status; code != http.StatusOK {
		t.Fatalf("queued ask = %d, want 200", code)
	}
	awaitJobState(t, tn, plug.ID, core.JobDone)
	// The ask ran inline: the plug is the only job the tenant ever had.
	if jobs := tn.System().Jobs(); len(jobs) != 1 || jobs[0].ID() != plug.ID {
		t.Errorf("job table = %d jobs, want only the plug", len(jobs))
	}
	if served := queueStats(t, ts.URL).Classes["t"].Served; served != 2 {
		t.Errorf("class served = %d, want 2 (plug + ask)", served)
	}
}

func TestSyncAskDisconnectWithdrawsTicket(t *testing.T) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	tn, ts, plug := plugTenant(t, gate)
	before := len(tn.System().History())

	cctx, cancel := context.WithCancel(context.Background())
	status := asyncAsk(cctx, ts.URL)
	awaitQueue(t, ts.URL, "one queued ask", func(q core.QueueStats) bool { return q.Queued == 1 })
	cancel()
	<-status
	awaitQueue(t, ts.URL, "the ticket withdrawn", func(q core.QueueStats) bool {
		return q.Queued == 0 && q.Classes["t"].Queued == 0
	})
	if n := len(tn.System().History()); n != before {
		t.Fatalf("history grew %d -> %d for a withdrawn ask", before, n)
	}

	// Only the plug runs once the gate opens.
	closeGate()
	if _, err := tn.System().Jobs()[0].Wait(context.Background()); err != nil {
		t.Fatalf("plug job %d: %v", plug.ID, err)
	}
	if n := len(tn.System().History()); n != before+1 {
		t.Errorf("history = %d after the plug, want %d", n, before+1)
	}
	if served := queueStats(t, ts.URL).Classes["t"].Served; served != 1 {
		t.Errorf("class served = %d, want 1 (the plug only)", served)
	}
}

func TestShutdownDrainsInlineAsk(t *testing.T) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: gatedRegistry(t, gate),
	})

	status := asyncAsk(context.Background(), ts.URL)
	awaitQueue(t, ts.URL, "the ask holding a slot", func(q core.QueueStats) bool { return q.Running == 1 })

	shutdownErr := make(chan error, 1)
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(sctx) }()
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned (%v) while a sync ask held a slot", err)
	case <-time.After(100 * time.Millisecond):
	}
	// New asks are refused while the held one drains.
	resp := postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ask during drain = %d, want 503", resp.StatusCode)
	}

	closeGate()
	if code := <-status; code != http.StatusOK {
		t.Fatalf("drained ask = %d, want 200", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSubscriptionRunsCreateNoJobs(t *testing.T) {
	srv, ts := startServer(t, Config{Env: testEnv(t)})
	tn := srv.Tenant("default")

	sub := subscribe(t, ts.URL, queryForensic)
	resp := postJSON(t, ts.URL+"/v1/admin/scenario", map[string]any{"seed": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject = %d", resp.StatusCode)
	}
	resp.Body.Close()
	awaitRevision(t, tn, sub.ID, 1)

	var list struct {
		Jobs []core.JobSummary `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 0 {
		t.Errorf("GET /v1/jobs lists %d jobs after subscription runs, want 0", len(list.Jobs))
	}
	var stats struct {
		Tenants map[string]struct {
			Jobs int `json:"jobs_tracked"`
		} `json:"tenants"`
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &stats)
	if n := stats.Tenants["default"].Jobs; n != 0 {
		t.Errorf("jobs_tracked = %d, want 0", n)
	}
	// Both runs still passed admission.
	if served := queueStats(t, ts.URL).Classes["default"].Served; served < 2 {
		t.Errorf("class served = %d, want >= 2 (baseline + re-run)", served)
	}
}
