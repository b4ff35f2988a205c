package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/expert"
	"arachnet/internal/netsim"
	"arachnet/internal/serve"
)

// bench is one booted serving tier: the server, its loopback listener
// and the client that drives it.
type bench struct {
	env    *core.Environment // the default tenant's environment
	sys    *core.System      // the default tenant's System
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	sub    *stream      // standing CS4 subscription; nil once closed
	twin   *core.System // traced pass only: see newTwin
}

// boot sets up one serving tier over the full world from scratch and
// injects the boot scenario through the admin endpoint while a
// standing CS4 subscription watches. It records the set-up time
// measured from t0.
func boot(ctx context.Context, p *pass, w workload, t0 time.Time) (*bench, error) {
	env, err := core.NewEnvironment(netsim.DefaultConfig(w.WorldSeed))
	if err != nil {
		return nil, err
	}
	b, err := start(p, env)
	if err != nil {
		return nil, err
	}
	if b.sub, err = b.subscribe(ctx, forensicQuery); err != nil {
		b.close()
		return nil, err
	}
	if err := b.inject(ctx, p, w.ScenarioSeed); err != nil {
		b.close()
		return nil, fmt.Errorf("boot scenario: %w", err)
	}
	p.setups = append(p.setups, time.Since(t0).Seconds())
	return b, nil
}

// start serves a fresh, cold server over env (serve.NewServer with the
// default tenant config) on a loopback listener.
func start(p *pass, env *core.Environment) (*bench, error) {
	srv, err := serve.NewServer(serve.Config{Env: env})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := srv.Tenant("default")
	b := &bench{
		env:    t.System().Environment(),
		sys:    t.System(),
		srv:    srv,
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	var h http.Handler = srv
	if p.tr != nil {
		h = p.tr.wrap(srv)
		if b.twin, err = newTwin(b); err != nil {
			ln.Close()
			return nil, err
		}
	}
	b.hs = &http.Server{Handler: h}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return b, nil
}

// close stops the subscription stream, the server and the listener,
// and waits for the serving goroutine to exit.
func (b *bench) close() {
	b.unsubscribe()
	if b.twin != nil {
		b.twin.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	_ = b.hs.Shutdown(ctx)
	<-b.served
	b.client.CloseIdleConnections()
}

// unsubscribe disconnects the standing subscription's stream, which
// makes the server close the subscription, and waits until its watch
// loop has exited, so no re-execution overlaps what follows.
func (b *bench) unsubscribe() {
	if b.sub == nil {
		return
	}
	sub := b.sys.Subscription(b.sub.id)
	b.sub.close()
	b.sub = nil
	if sub != nil {
		<-sub.Done()
	}
}

// post sends one JSON body and reads the whole response. The span
// headers tell the tracing wrapper which request and client span the
// handler span belongs to; the wrapper removes them before the server
// sees the request.
func (b *bench) post(ctx context.Context, path string, body any, req, span uint64) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set(reqHeader, strconv.FormatUint(req, 10))
		hr.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := b.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// askResponse is the part of the /v1/ask summary the gate reads.
type askResponse struct {
	Intent string `json:"intent"`
	Steps  []struct {
		Capability string `json:"capability"`
		DurationUS int64  `json:"duration_us"`
		Cached     bool   `json:"cached"`
		Error      string `json:"error"`
	} `json:"steps"`
	Outputs   map[string]json.RawMessage `json:"outputs"`
	ElapsedUS int64                      `json:"elapsed_us"`
	Error     string                     `json:"error"`
}

// ask sends one query, checks the answer and records it in p.
// measured selects whether its latency counts.
func (b *bench) ask(ctx context.Context, p *pass, q query, measured bool) {
	req := p.newRequest()
	var span uint64
	if p.tr != nil {
		span = p.tr.newID()
	}
	start := time.Now()
	status, body, err := b.post(ctx, "/v1/ask", map[string]string{"query": q.Text}, req, span)
	end := time.Now()
	if p.tr != nil {
		p.tr.add(span, 0, req, "http.client", start, end)
	}
	var resp askResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err == nil {
		err = checkAnswer(status, resp, q)
	}
	p.recordAsk(req, measured, end.Sub(start), body, resp, err)
	if p.tr != nil && err == nil {
		p.tr.shadowAsk(p, b, req, q)
	}
}

// checkAnswer is the output gate: status 200, the generated intent and
// that intent's output key.
func checkAnswer(status int, resp askResponse, q query) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, resp.Error)
	}
	if resp.Intent != string(q.Intent) {
		return fmt.Errorf("intent %q, generated as %q", resp.Intent, q.Intent)
	}
	key := outputKey(q.Intent)
	if v, ok := resp.Outputs[key]; !ok || len(v) == 0 || string(v) == "null" {
		return fmt.Errorf("answer lacks output %q", key)
	}
	return nil
}

// timingFreeLen is a response's length without the digits of its
// timing fields, so it repeats exactly across runs.
func timingFreeLen(body []byte) int {
	n := len(body)
	for _, key := range [][]byte{[]byte(`"elapsed_us":`), []byte(`"duration_us":`)} {
		for i := 0; ; {
			j := bytes.Index(body[i:], key)
			if j < 0 {
				break
			}
			i += j + len(key)
			for i < len(body) && (body[i] == '-' || body[i] >= '0' && body[i] <= '9') {
				i++
				n--
			}
		}
	}
	return n
}

// subscribe registers a standing query and opens its SSE stream.
func (b *bench) subscribe(ctx context.Context, text string) (*stream, error) {
	status, body, err := b.post(ctx, "/v1/subscriptions", map[string]string{"query": text}, 0, 0)
	if err != nil {
		return nil, err
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || status != http.StatusCreated {
		return nil, fmt.Errorf("subscribe: status %d: %s", status, body)
	}
	s, err := openStream(b, sub.ID)
	if err != nil {
		return nil, err
	}
	if _, err := s.next(ctx, "subscription_started"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// inject posts a scenario of the default cable (the busiest
// Europe-Asia one) and waits for the standing subscription's delta,
// then checks the subscription's verdict against the expert baseline
// on the same environment.
func (b *bench) inject(ctx context.Context, p *pass, seed uint64) error {
	req := p.newRequest()
	var span uint64
	if p.tr != nil {
		span = p.tr.newID()
	}
	sent := time.Now()
	status, body, err := b.post(ctx, "/v1/admin/scenario", map[string]any{"seed": seed}, req, span)
	answered := time.Now()
	if p.tr != nil {
		p.tr.add(span, 0, req, "http.admin", sent, answered)
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("inject seed %d: status %d: %s", seed, status, body)
	}
	var ev subEvent
	if err == nil {
		ev, err = b.sub.nextDelta(ctx, core.CauseRegistry)
	}
	read := time.Now()
	if err == nil {
		err = b.checkVerdict(p, ev.Revision)
	}
	p.recordDelta(err, read.Sub(sent), ev)
	if err != nil {
		return err
	}
	if p.tr != nil {
		p.tr.add(p.tr.newID(), 0, req, "subscribe.reexec", answered, read)
		p.tr.shadowInjection(p, b, req, seed)
	}
	return nil
}

// checkVerdict compares the standing query's current verdict with
// expert.Forensic on the tenant's environment.
func (b *bench) checkVerdict(p *pass, revision int) error {
	sub := b.sys.Subscription(b.sub.id)
	if sub == nil {
		return errors.New("standing subscription vanished")
	}
	rep, err := sub.Current()
	if err != nil {
		return fmt.Errorf("standing query: %w", err)
	}
	if got := sub.Revision(); got != revision {
		return fmt.Errorf("standing query at revision %d, delta frame %d", got, revision)
	}
	agent, ok := rep.Result.Outputs["verdict"].(core.Verdict)
	if !ok {
		return fmt.Errorf("standing query output verdict is %T", rep.Result.Outputs["verdict"])
	}
	want, err := expert.Forensic(b.env)
	if err != nil {
		return err
	}
	p.verdictsChecked++
	if agent.CauseIsCableFailure != want.CauseIsCableFailure || agent.Cable != want.Cable {
		return fmt.Errorf("standing verdict %v/%q, expert %v/%q",
			agent.CauseIsCableFailure, agent.Cable, want.CauseIsCableFailure, want.Cable)
	}
	p.verdictsAgreed++
	return nil
}

// subEvent is the part of an SSE subscription frame the benchmark reads.
type subEvent struct {
	Type        string `json:"type"`
	Cause       string `json:"cause"`
	Revision    int    `json:"revision"`
	StepsRun    int    `json:"steps_run"`
	StepsCached int    `json:"steps_cached"`
	Error       string `json:"error"`
	Delta       *struct {
		ErrAfter    string `json:"err_after"`
		StepsRun    int    `json:"steps_run"`
		StepsCached int    `json:"steps_cached"`
	} `json:"delta"`
}

// stream reads one subscription's SSE frames on its own goroutine.
type stream struct {
	id     uint64
	cancel context.CancelFunc
	frames chan subEvent
	done   chan struct{}
	err    error // read error; valid once done is closed
}

func openStream(b *bench, id uint64) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/subscriptions/%d/events", b.url, id), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscription stream: status %d", resp.StatusCode)
	}
	// A set-up reads a few frames for its one injection; 64 frames of
	// slack keep the reader from ever stalling the server's SSE writer.
	s := &stream{id: id, cancel: cancel, frames: make(chan subEvent, 64), done: make(chan struct{})}
	go s.read(resp.Body)
	return s, nil
}

func (s *stream) read(body io.ReadCloser) {
	defer close(s.done)
	defer close(s.frames)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev subEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			s.err = fmt.Errorf("subscription frame: %w", err)
			return
		}
		s.frames <- ev
	}
	s.err = sc.Err()
}

// next returns the next frame of one of the given types, skipping
// anomaly frames.
func (s *stream) next(ctx context.Context, types ...string) (subEvent, error) {
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case ev, ok := <-s.frames:
			if !ok {
				return ev, fmt.Errorf("subscription stream ended: %v", s.err)
			}
			for _, t := range types {
				if ev.Type == t {
					return ev, nil
				}
			}
			if !strings.HasPrefix(ev.Type, "anomaly_") {
				return ev, fmt.Errorf("unexpected subscription frame %q", ev.Type)
			}
		case <-timeout.C:
			return subEvent{}, fmt.Errorf("no %v frame within 60s", types)
		case <-ctx.Done():
			return subEvent{}, ctx.Err()
		}
	}
}

// nextDelta returns the next re-execution frame whose cause is not
// skip.
func (s *stream) nextDelta(ctx context.Context, skip string) (subEvent, error) {
	for {
		ev, err := s.next(ctx, "result_changed", "result_unchanged")
		if err != nil || ev.Cause != skip {
			return ev, err
		}
	}
}

// close disconnects the stream, which closes the subscription, and
// waits for the reader to exit.
func (s *stream) close() {
	s.cancel()
	for range s.frames {
	}
	<-s.done
}

// newTwin builds the traced pass's twin of the tenant System: same
// environment, a clone of the tenant's registry, attached to the
// server's scheduler in its own class, so timing Submit+Wait on it
// leaves the served System's caches and history untouched.
func newTwin(b *bench) (*core.System, error) {
	twin, err := core.NewSystem(b.env, b.sys.Registry().Clone())
	if err != nil {
		return nil, err
	}
	if err := twin.SetScheduler(b.srv.Scheduler(), "perfbench-twin"); err != nil {
		return nil, err
	}
	return twin, nil
}
