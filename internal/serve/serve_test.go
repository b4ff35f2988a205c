package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
)

const (
	queryCS1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	querySM4 = "Identify the impact at a country level due to SeaMeWe-4 cable failure"
	queryAAE = "Identify the impact at a country level due to AAE-1 cable failure"
	// gatedCap is the capability gatedRegistry holds at the gate.
	gatedCap = "nautilus.links_on_cables"
)

func testEnv(t testing.TB) *core.Environment {
	t.Helper()
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// gatedRegistry copies the CS1 subset with one capability held at a
// gate: its step blocks until the gate closes (or the run is
// cancelled). This pins served jobs mid-run deterministically.
func gatedRegistry(t testing.TB, gate <-chan struct{}) *registry.Registry {
	t.Helper()
	sub, err := core.BuiltinRegistry().Subset(core.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, c := range sub.All() {
		cc := *c
		if cc.Name == gatedCap {
			orig := c.Impl
			cc.Impl = func(call *registry.Call) error {
				select {
				case <-gate:
					return orig(call)
				case <-call.Context().Done():
					return call.Context().Err()
				}
			}
		}
		if err := reg.Register(cc); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// startServer builds the serving tier and exposes it over a real
// listener (SSE disconnect tests need actual connections).
func startServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
		ts.Close()
	})
	return srv, ts
}

func postJSON(t testing.TB, url string, body any, headers ...string) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t testing.TB, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// askSummary mirrors the wire summary the handlers return.
type askSummary struct {
	Query string `json:"query"`
	Steps []struct {
		Capability string `json:"capability"`
		Cached     bool   `json:"cached"`
	} `json:"steps"`
	QualityScore *float64 `json:"quality_score"`
	Promotions   []string `json:"promotions"`
	ElapsedUS    int64    `json:"elapsed_us"`
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	Event string
	Data  map[string]any
	Raw   string
}

// readSSE parses frames off an SSE body until pred returns true or the
// stream ends; it returns every frame read.
func readSSE(t testing.TB, resp *http.Response, pred func(sseFrame) bool) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Raw = strings.TrimPrefix(line, "data: ")
			cur.Data = map[string]any{}
			if err := json.Unmarshal([]byte(cur.Raw), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", cur.Raw, err)
			}
		case line == "" && cur.Event != "":
			frames = append(frames, cur)
			done := pred(cur)
			cur = sseFrame{}
			if done {
				return frames
			}
		}
	}
	return frames
}

// awaitJobState polls the tenant's job table until the job reaches want.
func awaitJobState(t testing.TB, tn *Tenant, id uint64, want core.JobState) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, j := range tn.System().Jobs() {
			if j.ID() == id && j.State() == want {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %s", id, want)
}

func TestHealthzAndAskRoundtrip(t *testing.T) {
	srv, ts := startServer(t, Config{Env: testEnv(t)})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask = %d", resp.StatusCode)
	}
	var rep askSummary
	decodeBody(t, resp, &rep)
	if rep.Query != queryCS1 {
		t.Errorf("query echo = %q", rep.Query)
	}
	// A synchronous ask runs inline and never enters the job table.
	if n := len(srv.Tenant("default").System().Jobs()); n != 0 {
		t.Errorf("job table holds %d jobs after a sync ask, want 0", n)
	}
	if len(rep.Steps) == 0 || rep.QualityScore == nil || *rep.QualityScore <= 0 {
		t.Errorf("summary incomplete: %d steps, quality %v", len(rep.Steps), rep.QualityScore)
	}

	// The full flag returns the complete Report (json-tagged core type).
	resp = postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1, "full": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full ask = %d", resp.StatusCode)
	}
	var full map[string]json.RawMessage
	decodeBody(t, resp, &full)
	for _, key := range []string{"query", "spec", "design", "result"} {
		if _, ok := full[key]; !ok {
			t.Errorf("full report lacks %q (keys %v)", key, keysOf(full))
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestAskBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{Env: testEnv(t)})
	cases := []struct {
		name    string
		body    string
		headers []string
		status  int
	}{
		{"empty query", `{}`, nil, http.StatusBadRequest},
		{"bad json", `{`, nil, http.StatusBadRequest},
		{"unknown tenant", fmt.Sprintf(`{"query":%q}`, queryCS1),
			[]string{tenantHeader, "nobody"}, http.StatusNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/ask", strings.NewReader(tc.body))
		for i := 0; i+1 < len(tc.headers); i += 2 {
			req.Header.Set(tc.headers[i], tc.headers[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad job id: status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status = %d", resp.StatusCode)
	}
}

func TestJobLifecycleAndSSEReplay(t *testing.T) {
	_, ts := startServer(t, Config{Env: testEnv(t)})

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var sub core.JobSummary
	decodeBody(t, resp, &sub)
	if sub.ID == 0 || sub.Query != queryCS1 {
		t.Fatalf("summary = %+v", sub)
	}

	// Stream the event log: a replayable stream always starts from the
	// first event and ends with the terminal done frame.
	stream, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	frames := readSSE(t, stream, func(f sseFrame) bool { return f.Event == "done" })
	if len(frames) < 5 {
		t.Fatalf("stream saw only %d frames", len(frames))
	}
	if frames[0].Event != "stage_started" {
		t.Errorf("first frame = %s, want stage_started (replay from the beginning)", frames[0].Event)
	}
	seen := map[string]bool{}
	for _, f := range frames {
		seen[f.Event] = true
	}
	for _, want := range []string{"stage_started", "stage_completed", "step_completed", "done"} {
		if !seen[want] {
			t.Errorf("stream never delivered %s", want)
		}
	}
	done := frames[len(frames)-1]
	repAny, ok := done.Data["report"].(map[string]any)
	if !ok || repAny["query"] != queryCS1 {
		t.Errorf("done frame report = %v", done.Data["report"])
	}

	// A second subscriber replays the identical history after the fact.
	replay, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	again := readSSE(t, replay, func(f sseFrame) bool { return f.Event == "done" })
	if len(again) != len(frames) {
		t.Errorf("replay saw %d frames, live saw %d", len(again), len(frames))
	}

	// The job resource reflects the terminal state and carries a report.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		State  core.JobState `json:"state"`
		Report *askSummary   `json:"report"`
	}
	decodeBody(t, resp, &got)
	if got.State != core.JobDone || got.Report == nil || len(got.Report.Steps) == 0 {
		t.Errorf("job resource = %+v", got)
	}

	var list struct {
		Jobs []core.JobSummary `json:"jobs"`
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}
}

func TestSSEDisconnectCancelsJob(t *testing.T) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: gatedRegistry(t, gate),
		Workers:      1,
	})
	tn := srv.Tenant("default")

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	var sub core.JobSummary
	decodeBody(t, resp, &sub)

	// Stream until the run is pinned at the gated step, then drop the
	// connection: the server must map the disconnect onto job cancel.
	cctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(cctx,
		http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, sub.ID), nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, stream, func(f sseFrame) bool {
		return f.Event == "step_started" && f.Data["capability"] == gatedCap
	})
	cancel()
	stream.Body.Close()
	awaitJobState(t, tn, sub.ID, core.JobCancelled)

	// A detached subscriber (?detach=1) may come and go freely.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	var sub2 core.JobSummary
	decodeBody(t, resp, &sub2)
	dctx, dcancel := context.WithCancel(context.Background())
	req, _ = http.NewRequestWithContext(dctx,
		http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d/events?detach=1", ts.URL, sub2.ID), nil)
	stream, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, stream, func(f sseFrame) bool {
		return f.Event == "step_started" && f.Data["capability"] == gatedCap
	})
	dcancel()
	stream.Body.Close()
	// Give the handler's disconnect path time to (wrongly) cancel.
	time.Sleep(50 * time.Millisecond)
	if st := jobState(tn, sub2.ID); st != core.JobRunning {
		t.Fatalf("detached job state = %s after disconnect, want running", st)
	}
	closeGate()
	awaitJobState(t, tn, sub2.ID, core.JobDone)
}

func jobState(tn *Tenant, id uint64) core.JobState {
	for _, j := range tn.System().Jobs() {
		if j.ID() == id {
			return j.State()
		}
	}
	return ""
}

func TestQueueShed429AndCancel(t *testing.T) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: gatedRegistry(t, gate),
		Workers:      1,
		Tenants:      []TenantConfig{{Name: "t", MaxQueued: 1}},
	})
	tn := srv.Tenant("t")

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	var running core.JobSummary
	decodeBody(t, resp, &running)
	awaitJobState(t, tn, running.ID, core.JobRunning)

	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	var queued core.JobSummary
	decodeBody(t, resp, &queued)

	// Per-tenant MaxQueued is full: the next submission is shed with a
	// Retry-After hint.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response lacks Retry-After")
	}
	resp.Body.Close()

	// Synchronous asks share the same admission control.
	resp = postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sync ask shed status = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	var stats struct {
		Queue core.QueueStats `json:"queue"`
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &stats)
	if stats.Queue.Shed < 2 || stats.Queue.Classes["t"].Shed < 2 {
		t.Errorf("stats shed = %d (class %d), want >= 2", stats.Queue.Shed, stats.Queue.Classes["t"].Shed)
	}

	// DELETE cancels the queued job immediately.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, queued.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled core.JobSummary
	decodeBody(t, resp, &cancelled)
	if cancelled.State != core.JobCancelled {
		t.Errorf("cancelled state = %s", cancelled.State)
	}
	closeGate()
	awaitJobState(t, tn, running.ID, core.JobDone)
}

func TestTenantAuth(t *testing.T) {
	_, ts := startServer(t, Config{
		Env:     testEnv(t),
		Tenants: []TenantConfig{{Name: "secure", Token: "s3cret"}},
	})

	resp := postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no-token status = %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1},
		tenantHeader, "secure", "Authorization", "Bearer wrong")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token status = %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// The bearer token alone both selects and authenticates the tenant.
	resp = postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": queryCS1},
		"Authorization", "Bearer s3cret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("token status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Stats on a tokened server require credentials too.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusUnauthorized {
		t.Errorf("anonymous stats status = %d, want 401", sresp.StatusCode)
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: gatedRegistry(t, gate),
		Workers:      1,
	})
	tn := srv.Tenant("default")

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	var sub core.JobSummary
	decodeBody(t, resp, &sub)
	awaitJobState(t, tn, sub.ID, core.JobRunning)

	shutdownErr := make(chan error, 1)
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(sctx) }()

	// The tier refuses new work while the accepted job drains.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported shutdown")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// Release the pinned step: the drain completes and the accepted job
	// finished rather than being dropped.
	closeGate()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := jobState(tn, sub.ID); st != core.JobDone {
		t.Errorf("drained job state = %s, want done", st)
	}
}
