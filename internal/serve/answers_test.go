package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/core"
	"arachnet/internal/registry"
)

// The four paper case-study queries, verbatim, with the output each
// intent's answer must carry.
var caseStudies = []struct{ query, intent, output string }{
	{queryCS1, "cable-impact", "aggregation"},
	{"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability", "disaster-impact", "combination"},
	{"Analyze the cascading effects of submarine cable failures between Europe and Asia", "cascade", "synthesis"},
	{"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.", "forensic", "verdict"},
}

// memoMarker replaces planted memo bodies: an answer that carries it
// was spliced from the memo.
const memoMarker = `,"memo_marker":true`

// memoServer boots a one-tenant server over the small world with the
// test scenario injected (the forensic case study needs it).
func memoServer(t testing.TB, base *registry.Registry) (*Server, *Tenant) {
	t.Helper()
	srv, err := NewServer(Config{Env: testEnv(t), BaseRegistry: base})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	if rec := serveJSON(srv, "/v1/admin/scenario", `{"seed":5}`); rec.Code != http.StatusOK {
		t.Fatalf("scenario: %d %s", rec.Code, rec.Body)
	}
	return srv, srv.Tenant("default")
}

// serveJSON posts body to path through ServeHTTP.
func serveJSON(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// askBody is a /v1/ask body for query with extra JSON fields.
func askBody(query string, extra string) string {
	q, _ := json.Marshal(query)
	return `{"query":` + string(q) + extra + `}`
}

// ask posts one /v1/ask and requires status want.
func ask(t testing.TB, srv *Server, body string, want int) []byte {
	t.Helper()
	rec := serveJSON(srv, "/v1/ask", body)
	if rec.Code != want {
		t.Fatalf("ask %s: status %d, want %d: %s", body, rec.Code, want, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("ask %s: Content-Length %q for a %d-byte body", body, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

var (
	elapsedRe  = regexp.MustCompile(`"elapsed_us":\d+`)
	stepTimeRe = regexp.MustCompile(`"duration_us":\d+(,"cached":true)?`)
)

// maskElapsed blanks the elapsed_us digits, the only bytes two
// encodings of one whole replay may differ in.
func maskElapsed(b []byte) string {
	return elapsedRe.ReplaceAllString(string(b), `"elapsed_us":0`)
}

// maskTimings also blanks each step's duration and cached flag, which
// tell a fresh run from a replay of the same results.
func maskTimings(b []byte) string {
	return stepTimeRe.ReplaceAllString(maskElapsed(b), `"duration_us":0`)
}

// freshEncode runs query on the tenant's System (without curation, so
// the plan stays put) and encodes it the way the encoder path does.
func freshEncode(t testing.TB, tn *Tenant, query string) ([]byte, *core.Report) {
	t.Helper()
	rep, err := tn.System().Ask(context.Background(), query, core.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, summarizeReport(rep))
	return rec.Body.Bytes(), rep
}

// memoOf returns the memo state of sol, or nil.
func memoOf(srv *Server, sol *solutionweaver.Solution) *memoState {
	return srv.answers.entry(sol).state.Load()
}

// memoLen counts the memo's live entries.
func memoLen(srv *Server) int {
	n := 0
	srv.answers.m.Range(func(any, any) bool { n++; return true })
	return n
}

// plantMarker swaps the body of every memo entry that has recorded
// fingerprints for memoMarker.
func plantMarker(srv *Server) {
	srv.answers.m.Range(func(_, v any) bool {
		e := v.(*memoEntry)
		if st := e.state.Load(); st != nil {
			e.state.Store(&memoState{fps: st.fps, body: []byte(memoMarker)})
		}
		return true
	})
}

// whitespaceVariant respells q with other whitespace runs: the same
// plan-cache key, a different query string on the wire.
func whitespaceVariant(q string) string {
	return " \t" + strings.ReplaceAll(q, " ", "  \n") + "\r\n"
}

// TestAnswerMemoByteIdentity: from the third whole replay on, the
// memoized answer equals the encoder's, elapsed_us digits aside — also
// for a whitespace respelling, whose query must be spliced exactly.
func TestAnswerMemoByteIdentity(t *testing.T) {
	srv, tn := memoServer(t, nil)
	noCuration := `,"no_curation":true`
	for _, cs := range caseStudies {
		// A fresh run, then two whole replays: record, store.
		for i := 0; i < 3; i++ {
			ask(t, srv, askBody(cs.query, noCuration), http.StatusOK)
		}
		want, rep := freshEncode(t, tn, cs.query)
		st := memoOf(srv, rep.Solution)
		if st == nil || st.body == nil || !sameFingerprints(st.fps, rep.Result.Steps) {
			t.Fatalf("%s: memo not filled after two whole replays", cs.intent)
		}
		got := ask(t, srv, askBody(cs.query, noCuration), http.StatusOK)
		if maskElapsed(got) != maskElapsed(want) {
			t.Fatalf("%s: memoized answer differs from a fresh encode:\n got %s\nwant %s", cs.intent, got, want)
		}

		variant := whitespaceVariant(cs.query)
		want, vrep := freshEncode(t, tn, variant)
		if vrep.Solution != rep.Solution {
			t.Fatalf("%s: the whitespace variant missed the plan cache", cs.intent)
		}
		got = ask(t, srv, askBody(variant, noCuration), http.StatusOK)
		if maskElapsed(got) != maskElapsed(want) {
			t.Fatalf("%s variant: memoized answer differs from a fresh encode:\n got %s\nwant %s", cs.intent, got, want)
		}
		var sum struct {
			Query string `json:"query"`
		}
		if err := json.Unmarshal(got, &sum); err != nil || sum.Query != variant {
			t.Fatalf("%s variant: query %q (err %v), want %q", cs.intent, sum.Query, err, variant)
		}
	}
	if n := memoLen(srv); n != len(caseStudies) {
		t.Errorf("memo holds %d entries, want one per case study (%d)", n, len(caseStudies))
	}
}

// TestAnswerMemoInvalidation: a scenario injection and a step-cache
// flush both end in answers the encoder would give, never stale bytes.
func TestAnswerMemoInvalidation(t *testing.T) {
	srv, tn := memoServer(t, nil)
	forensic := caseStudies[3].query
	body := askBody(forensic, `,"no_curation":true`)
	for i := 0; i < 3; i++ {
		ask(t, srv, body, http.StatusOK)
	}
	_, before := freshEncode(t, tn, forensic)
	if st := memoOf(srv, before.Solution); st == nil || st.body == nil {
		t.Fatal("memo not filled before the injection")
	}

	if rec := serveJSON(srv, "/v1/admin/scenario", `{"seed":9,"days_before_now":5}`); rec.Code != http.StatusOK {
		t.Fatalf("scenario: %d %s", rec.Code, rec.Body)
	}
	// The first answer runs fresh steps and its reference replays
	// them; from the second on both are whole replays.
	for i := 0; i < 4; i++ {
		got := ask(t, srv, body, http.StatusOK)
		want, _ := freshEncode(t, tn, forensic)
		if maskTimings(got) != maskTimings(want) || i > 0 && maskElapsed(got) != maskElapsed(want) {
			t.Fatalf("answer %d after the injection differs from a fresh encode:\n got %s\nwant %s", i, got, want)
		}
	}

	cs1 := askBody(queryCS1, `,"no_curation":true`)
	for i := 0; i < 3; i++ {
		ask(t, srv, cs1, http.StatusOK)
	}
	tn.System().SetCacheLimits(core.DefaultPlanCacheEntries, 0, 0) // flush the step cache
	tn.System().SetCacheLimits(core.DefaultPlanCacheEntries, core.DefaultStepCacheEntries, core.DefaultStepCacheBytes)
	var sum struct {
		Steps []struct {
			DurationUS int64 `json:"duration_us"`
			Cached     bool  `json:"cached"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(ask(t, srv, cs1, http.StatusOK), &sum); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range sum.Steps {
		if st.Cached {
			t.Fatal("a step was served from the flushed step cache")
		}
		total += st.DurationUS
	}
	if total == 0 {
		t.Fatalf("answer after the flush carries no step durations: %+v", sum.Steps)
	}

	// A stored body whose fingerprints no longer match the replay (as
	// when an injection lands between the plan hit and execution) is
	// never served: the encoder answers and the memo re-records.
	for i := 0; i < 2; i++ {
		ask(t, srv, cs1, http.StatusOK)
	}
	want, rep := freshEncode(t, tn, queryCS1)
	e := srv.answers.entry(rep.Solution)
	st := e.state.Load()
	if st == nil || st.body == nil {
		t.Fatal("memo not refilled after the flush")
	}
	stale := append([]string(nil), st.fps...)
	stale[0] = "stale"
	e.state.Store(&memoState{fps: stale, body: []byte(memoMarker)})
	if got := ask(t, srv, cs1, http.StatusOK); maskElapsed(got) != maskElapsed(want) {
		t.Fatalf("answer under mismatched fingerprints differs from a fresh encode:\n got %s\nwant %s", got, want)
	}
	if st := e.state.Load(); st.body != nil || !sameFingerprints(st.fps, rep.Result.Steps) {
		t.Fatal("a fingerprint mismatch did not re-record the replay's fingerprints")
	}
}

// TestAnswerMemoBypass: promotion answers, 422 partial reports, full
// reports and no_cache asks never come from the memo, even with every
// entry planted.
func TestAnswerMemoBypass(t *testing.T) {
	var fail atomic.Bool
	base := cs1Base(t)
	reg := registry.New()
	for _, c := range base.All() {
		cc := *c
		if cc.Name == gatedCap {
			orig := c.Impl
			cc.Impl = func(call *registry.Call) error {
				if fail.Load() {
					return fmt.Errorf("injected failure")
				}
				return orig(call)
			}
		}
		if err := reg.Register(cc); err != nil {
			t.Fatal(err)
		}
	}
	srv, tn := memoServer(t, reg)
	noCuration := askBody(queryCS1, `,"no_curation":true`)
	for i := 0; i < 3; i++ {
		ask(t, srv, noCuration, http.StatusOK)
	}
	plantMarker(srv)
	if got := ask(t, srv, noCuration, http.StatusOK); !strings.Contains(string(got), memoMarker) {
		t.Fatalf("a warm whole replay did not use the memo: %s", got)
	}

	for _, extra := range []string{`,"full":true`, `,"no_cache":true`} {
		if got := ask(t, srv, askBody(queryCS1, extra), http.StatusOK); strings.Contains(string(got), memoMarker) {
			t.Errorf("%s answer came from the memo", extra)
		}
	}

	// A similar query gives the curator pattern support 2; the next
	// curated CS1 ask is a whole replay that promotes.
	ask(t, srv, askBody(querySM4, `,"no_curation":true`), http.StatusOK)
	plantMarker(srv)
	got := ask(t, srv, askBody(queryCS1, ""), http.StatusOK)
	var sum struct {
		Promotions []string `json:"promotions"`
		Steps      []struct {
			Cached bool `json:"cached"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(got, &sum); err != nil {
		t.Fatalf("promotion answer: %v: %s", err, got)
	}
	if len(sum.Promotions) == 0 {
		t.Fatalf("curated ask promoted nothing: %s", got)
	}

	// The promotion bumped the generation: warm the new plan, then
	// fail a step of it with the step cache flushed.
	for i := 0; i < 3; i++ {
		ask(t, srv, noCuration, http.StatusOK)
	}
	plantMarker(srv)
	tn.System().SetCacheLimits(core.DefaultPlanCacheEntries, 0, 0)
	fail.Store(true)
	partial := ask(t, srv, noCuration, http.StatusUnprocessableEntity)
	if strings.Contains(string(partial), memoMarker) || !strings.Contains(string(partial), `"report":{"query"`) {
		t.Errorf("422 answer came from the memo or lacks its partial report: %s", partial)
	}
}

// TestAnswerMemoFollowsPlanCache: flushing the plan cache lets its
// Solutions be collected, and their memo entries go with them.
func TestAnswerMemoFollowsPlanCache(t *testing.T) {
	srv, tn := memoServer(t, cs1Base(t))
	for _, q := range []string{queryCS1, querySM4} {
		for i := 0; i < 3; i++ {
			ask(t, srv, askBody(q, `,"no_curation":true`), http.StatusOK)
		}
	}
	if n := memoLen(srv); n != 2 {
		t.Fatalf("memo holds %d entries, want 2", n)
	}
	tn.System().SetCacheLimits(0, core.DefaultStepCacheEntries, core.DefaultStepCacheBytes)
	deadline := time.Now().Add(10 * time.Second)
	for memoLen(srv) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("memo still holds %d entries after the plan cache was flushed", memoLen(srv))
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnswerMemoConcurrentInjections hammers the memo with concurrent
// asks of every case study while scenarios are injected: every answer
// is a 200 that passes the intent and output-key gate.
func TestAnswerMemoConcurrentInjections(t *testing.T) {
	srv, _ := memoServer(t, nil)
	rounds := 40
	if testing.Short() {
		rounds = 15
	}
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		for seed := 6; ctx.Err() == nil; seed++ {
			if rec := serveJSON(srv, "/v1/admin/scenario", fmt.Sprintf(`{"seed":%d}`, seed)); rec.Code != http.StatusOK {
				t.Errorf("scenario %d: %d %s", seed, rec.Code, rec.Body)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cs := caseStudies[(c+i)%len(caseStudies)]
				rec := serveJSON(srv, "/v1/ask", askBody(cs.query, ""))
				if err := gateAnswer(rec, cs.intent, cs.output); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	stop()
	<-injected
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gateAnswer checks a 200 answer's intent and its intent's output key.
func gateAnswer(rec *httptest.ResponseRecorder, intent, output string) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", intent, rec.Code, rec.Body)
	}
	var sum struct {
		Intent  string                     `json:"intent"`
		Outputs map[string]json.RawMessage `json:"outputs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		return fmt.Errorf("%s: %v: %s", intent, err, rec.Body)
	}
	if sum.Intent != intent {
		return fmt.Errorf("intent %q, want %q", sum.Intent, intent)
	}
	if v, ok := sum.Outputs[output]; !ok || len(v) == 0 || string(v) == "null" {
		return fmt.Errorf("%s answer lacks output %q: %s", intent, output, rec.Body)
	}
	return nil
}
