package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
)

// BenchmarkServeAskWarm measures the JSON-encode layer of the serving
// tier: warm default-options POST /v1/ask of the four case studies
// through Server.ServeHTTP (no network), over the full world with a
// scenario injected. After the warm-up every ask is a whole replay, so
// what remains is admission, the replay and writing the answer.
func BenchmarkServeAskWarm(b *testing.B) {
	env, err := core.NewEnvironment(netsim.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(Config{Env: env})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if rec := serveJSON(srv, "/v1/admin/scenario", `{"seed":42}`); rec.Code != http.StatusOK {
		b.Fatalf("scenario: %d %s", rec.Code, rec.Body)
	}
	bodies := make([]string, len(caseStudies))
	for i, cs := range caseStudies {
		bodies[i] = askBody(cs.query, "")
	}
	// Curation settles (promotions bump the registry generation and
	// re-plan) well within the warm-up rounds.
	for round := 0; round < 20; round++ {
		for _, body := range bodies {
			if rec := serveJSON(srv, "/v1/ask", body); rec.Code != http.StatusOK {
				b.Fatalf("warm-up ask: %d %s", rec.Code, rec.Body)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("ask: %d %s", rec.Code, rec.Body)
		}
	}
}
