package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeAsk feeds arbitrary bodies to the shared request decoder
// of /v1/ask, /v1/jobs and /v1/subscriptions: every body either is
// refused with 400 or yields a request with a non-blank query and no
// response written, and nothing panics. Seeds live in
// testdata/fuzz/FuzzDecodeAsk.
func FuzzDecodeAsk(f *testing.F) {
	f.Add([]byte(`{"query":"Identify the impact at a country level due to SeaMeWe-5 cable failure"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(string(body)))
		req, ok := decodeAsk(w, r)
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("refused body answered %d, want 400", w.Code)
			}
			return
		}
		if strings.TrimSpace(req.Query) == "" {
			t.Fatalf("accepted a blank query from %q", body)
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted body also wrote a response: %q", w.Body.String())
		}
	})
}
