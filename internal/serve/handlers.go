// HTTP handlers: request decoding, tenant resolution, and the mapping
// from serving-layer errors to status codes (queue shed → 429 with
// Retry-After, closed tier → 503, pipeline failure → 422).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"arachnet/internal/core"
)

// tenantHeader names the tenant a request addresses. Requests may
// instead (or additionally) authenticate with "Authorization: Bearer
// <token>"; with a single configured tenant the header is optional.
const tenantHeader = "X-Arachnet-Tenant"

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/ask", s.handleAsk)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.subscriptionRoutes()
}

// askRequest is the body of POST /v1/ask and POST /v1/jobs.
type askRequest struct {
	Query string `json:"query"`
	// TimeoutMS bounds the pipeline's wall-clock time; 0 uses the
	// server default, capped by the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the tenant's plan and step caches for this call.
	NoCache bool `json:"no_cache,omitempty"`
	// NoCuration disables post-run registry evolution for this call.
	NoCuration bool `json:"no_curation,omitempty"`
	// Parallelism bounds concurrent workflow steps (0 = default).
	Parallelism int `json:"parallelism,omitempty"`
	// Full returns the complete Report instead of the summary view.
	Full bool `json:"full,omitempty"`
}

type errorResponse struct {
	Error  string      `json:"error"`
	Report *reportJSON `json:"report,omitempty"`
}

// bufPool recycles response buffers. Buffers that grew past
// maxPooledBuf (a huge full report) are left to the collector.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufPool.Put(b)
	}
}

// encodeJSON appends v as json.Encoder writes it with HTML escaping
// off — the encoding and a newline — or, on error, nothing.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// writeBody sends a JSON response body in one Write with its
// Content-Length set, so the server never chunks it.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON encodes v into a pooled buffer and sends it with writeBody.
// A value that fails to encode sends an empty body with the status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	_ = encodeJSON(buf, v)
	writeBody(w, status, buf.Bytes())
	putBuf(buf)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// bearer extracts a bearer token from the Authorization header.
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
		return strings.TrimSpace(tok)
	}
	return ""
}

// resolveTenant picks the tenant a request addresses — by header, by
// token, or the single configured tenant — without enforcing auth.
func (s *Server) resolveTenant(r *http.Request) *Tenant {
	if name := r.Header.Get(tenantHeader); name != "" {
		return s.tenants[name]
	}
	if tok := bearer(r); tok != "" {
		return s.byToken[tok]
	}
	return s.single
}

// tenant resolves and authenticates the request's tenant, writing the
// error response itself when it fails.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	t := s.resolveTenant(r)
	if t == nil {
		if name := r.Header.Get(tenantHeader); name != "" {
			httpError(w, http.StatusNotFound, "unknown tenant %q", name)
		} else {
			httpError(w, http.StatusBadRequest, "tenant required: set %s or a bearer token", tenantHeader)
		}
		return nil, false
	}
	if t.cfg.Token != "" && bearer(r) != t.cfg.Token {
		httpError(w, http.StatusUnauthorized, "tenant %q requires a bearer token", t.cfg.Name)
		return nil, false
	}
	return t, true
}

// askOptions maps a request onto per-call AskOptions, after the
// server-wide CallOptions.
func (s *Server) askOptions(req askRequest) []core.AskOption {
	opts := append([]core.AskOption{}, s.cfg.CallOptions...)
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		opts = append(opts, core.AskTimeout(timeout))
	}
	if req.NoCache {
		opts = append(opts, core.AskNoCache())
	}
	if req.NoCuration {
		opts = append(opts, core.AskWithoutCuration())
	}
	if req.Parallelism > 0 {
		opts = append(opts, core.AskParallelism(req.Parallelism))
	}
	return opts
}

// decodeAsk parses and validates the shared request body.
func decodeAsk(w http.ResponseWriter, r *http.Request) (askRequest, bool) {
	var req askRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return req, false
	}
	if strings.TrimSpace(req.Query) == "" {
		httpError(w, http.StatusBadRequest, "query required")
		return req, false
	}
	return req, true
}

// submitError maps admission failures to HTTP. Shed load answers 429
// with a Retry-After hint so well-behaved clients back off.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrJobQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, core.ErrJobsClosed):
		httpError(w, http.StatusServiceUnavailable, "serving tier is shutting down")
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleAsk serves a synchronous query inline: the tenant's Ask takes
// a run slot first, under the same admission control as jobs, and
// creates no Job. Client disconnect withdraws a waiting slot claim or
// cancels the run through the request context. A successful summary
// is written by writeAnswer, through the answer memo.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	req, ok := decodeAsk(w, r)
	if !ok {
		return
	}
	rep, err := t.sys.Ask(r.Context(), req.Query, s.askOptions(req)...)
	if r.Context().Err() != nil {
		// Client gone: nobody is left to read a response.
		return
	}
	var pe *core.PipelineError
	if err != nil && !errors.As(err, &pe) {
		submitError(w, err) // refused before any stage ran
		return
	}
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error:  err.Error(),
			Report: summarizeReport(rep),
		})
		return
	}
	if req.Full {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	s.writeAnswer(w, rep)
}

// handleSubmit enqueues an asynchronous job. The job is parented on
// the server (not the request), so it survives the submitting
// connection and is observable through /v1/jobs/{id}/events.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	req, ok := decodeAsk(w, r)
	if !ok {
		return
	}
	j, err := t.sys.Submit(s.jobCtx, req.Query, s.askOptions(req)...)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Summary())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	jobs := t.sys.Jobs()
	out := make([]core.JobSummary, len(jobs))
	for i, j := range jobs {
		out[i] = j.Summary()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// findJob resolves {id} within the tenant's own job table — tenants
// can only ever see and act on their own jobs.
func (s *Server) findJob(w http.ResponseWriter, r *http.Request, t *Tenant) (*core.Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	for _, j := range t.sys.Jobs() {
		if j.ID() == id {
			return j, true
		}
	}
	httpError(w, http.StatusNotFound, "no job %d", id)
	return nil, false
}

type jobResponse struct {
	core.JobSummary
	Report *reportJSON `json:"report,omitempty"`
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	resp := jobResponse{JobSummary: j.Summary()}
	if resp.State == core.JobDone || resp.State == core.JobCancelled {
		if rep, err := j.Wait(r.Context()); err == nil || rep != nil {
			resp.Report = summarizeReport(rep)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Summary())
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	Queue   core.QueueStats        `json:"queue"`
	Tenants map[string]tenantStats `json:"tenants"`
}

type tenantStats struct {
	Cache      core.CacheStats `json:"cache"`
	Registry   int             `json:"registry_size"`
	Generation uint64          `json:"registry_generation"`
	Promotions int             `json:"promotions"`
	Jobs       int             `json:"jobs_tracked"`
}

// handleStats reports queue and cache state. An authenticated (or
// header-addressed) request sees its own tenant; an unaddressed
// request on an open server (no tenant tokens) sees every tenant —
// the operator dashboard view.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Queue: s.sched.Stats(), Tenants: map[string]tenantStats{}}
	if t := s.resolveTenant(r); t != nil {
		if t.cfg.Token != "" && bearer(r) != t.cfg.Token {
			httpError(w, http.StatusUnauthorized, "tenant %q requires a bearer token", t.cfg.Name)
			return
		}
		resp.Tenants[t.cfg.Name] = s.tenantStats(t)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if s.anyAuth {
		httpError(w, http.StatusUnauthorized, "stats require tenant credentials")
		return
	}
	for name, t := range s.tenants {
		resp.Tenants[name] = s.tenantStats(t)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) tenantStats(t *Tenant) tenantStats {
	return tenantStats{
		Cache:      t.sys.CacheStats(),
		Registry:   t.sys.Registry().Size(),
		Generation: t.sys.Registry().Generation(),
		Promotions: len(t.sys.Promotions()),
		Jobs:       len(t.sys.Jobs()),
	}
}
