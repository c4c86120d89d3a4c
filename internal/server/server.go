package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"critload/internal/dataflow"
	"critload/internal/families"
	"critload/internal/jobs"
	"critload/internal/obsv"
	"critload/internal/ptx"
	"critload/internal/workloads"
	"critload/pkg/api"
)

// maxRequestBytes bounds every request body; PTX sources and job specs are
// small, so anything larger is a client error, not a workload.
const maxRequestBytes = 4 << 20

// retryAfterHint is the Retry-After value (in seconds) sent with queue-full
// 429s and shutting-down 503s. One second matches the service's drain rate:
// a full queue at typical job wall times frees slots well within it, and a
// smaller hint cannot be expressed in the header's integer-seconds form.
const retryAfterHint = "1"

// Server is the critloadd HTTP API.
//
//	POST   /v1/classify        classify a PTX source's global loads (synchronous)
//	POST   /v1/classify/batch  classify many PTX sources in one request
//	POST   /v1/ptx           validate + classify a raw .ptx program (422 diagnostics)
//	POST   /v1/jobs          submit a functional or timing simulation job
//	GET    /v1/jobs/{id}     poll a job (optionally ?wait_ms=N)
//	DELETE /v1/jobs/{id}     cancel a job
//	GET    /v1/workloads     list the Table I workloads and parameterized families
//	GET    /healthz          liveness
//	GET    /metrics          Prometheus text exposition
//
// /v1/classify and /v1/jobs also accept a {"family": {...}} spec in place of
// PTX source / a workload name: a parameterized kernel family (see
// internal/families) resolved to its canonical workload name server-side.
//
// Every request flows through the observability chain: request-ID
// injection (echoed on X-Request-ID), in-flight and per-endpoint latency
// instrumentation, structured access logging, and panic recovery — a
// crashing handler answers 500 and the daemon keeps serving.
type Server struct {
	mgr     *jobs.Manager
	mux     *http.ServeMux
	routes  *routeTable
	handler http.Handler
	log     *slog.Logger
	metrics *metricsSet
	start   time.Time
}

// Option customises a Server at construction.
type Option func(*Server)

// WithLogger routes access logs and panic reports to l; the default logger
// discards them, keeping library users (and tests) quiet.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// New wires the API around a job manager. It installs itself as the
// manager's execution observer to feed the job wall-time histograms.
func New(mgr *jobs.Manager, opts ...Option) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), routes: newRouteTable(),
		log: obsv.NopLogger(), start: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	// Routes go through s.route so the metrics endpoint-label set below is
	// derived from the registrations — a route added here is instrumented
	// under its own label automatically, never bucketed as "other".
	s.route("POST /v1/classify", s.handleClassify)
	s.route("POST /v1/classify/batch", s.handleClassifyBatch)
	s.route("POST /v1/ptx", s.handlePTX)
	s.route("POST /v1/jobs", s.handleSubmit)
	s.route("GET /v1/jobs/{id}", s.handleGet)
	s.route("DELETE /v1/jobs/{id}", s.handleCancel)
	s.route("GET /v1/workloads", s.handleWorkloads)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /metrics", s.handleMetrics)
	s.metrics = newMetricsSet(mgr, s.start, s.routes.labels())
	s.handler = obsv.Chain(s.mux,
		obsv.RequestID(),
		obsv.Instrument(s.routes.label, s.metrics.httpInFlight, s.metrics.observeRequest),
		obsv.AccessLog(s.log),
		obsv.Recover(s.log, s.metrics.httpPanics.Inc),
	)
	return s
}

// route registers a handler on the mux and records its endpoint label for
// the metrics layer.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.routes.add(pattern)
	s.mux.HandleFunc(pattern, h)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	s.handler.ServeHTTP(w, r)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Message: fmt.Sprintf(format, args...)})
}

// bodyErrorStatus distinguishes an oversized body — MaxBytesReader's error,
// owed a 413 — from every other read/decode failure, which is a 400.
func bodyErrorStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ---------------------------------------------------------------------------
// POST /v1/classify

// isJSONBody decides whether a classify body is the JSON envelope or raw
// PTX. An explicit Content-Type is parsed as a proper media type and
// trusted: application/json, text/json and any +json suffix mean JSON,
// anything else (text/plain, application/octet-stream, ...) means raw PTX.
// With no Content-Type — or one mime.ParseMediaType rejects — the body is
// sniffed: PTX source never opens with '{', so a leading brace is JSON.
// The old strings.Contains(ct, "json") check sent a headerless JSON body
// down the raw-PTX path, where it died with a misleading parse error.
func isJSONBody(ct string, body []byte) bool {
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			return mt == "application/json" || mt == "text/json" ||
				strings.HasSuffix(mt, "+json")
		}
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// classifyKernel runs the classifier over one parsed kernel. Every load's
// roots are carved from one array per kernel.
func classifyKernel(k *ptx.Kernel) api.Kernel {
	res := dataflow.Classify(k)
	det, nondet := res.Counts()
	kj := api.Kernel{
		Name: k.Name, Deterministic: det, NonDeterministic: nondet,
		Loads: make([]api.Load, len(res.Loads)),
	}
	nroots := 0
	for _, l := range res.Loads {
		nroots += len(l.Roots)
	}
	roots := make([]api.Root, 0, nroots)
	for i, l := range res.Loads {
		start := len(roots)
		for _, root := range l.Roots {
			roots = append(roots, api.Root{Kind: root.Kind.String(), Name: root.Name})
		}
		kj.Loads[i] = api.Load{
			PC:    pcString(l.PC),
			Inst:  k.Insts[l.InstIndex].String(),
			Class: l.Class.String(),
			Roots: roots[start:len(roots):len(roots)],
		}
	}
	return kj
}

// pcString renders a PC the way the wire has always shown it, "0x%03x".
func pcString(pc uint32) string {
	var buf [16]byte
	b := append(buf[:0], "0x"...)
	for x := uint32(0x100); x > 1 && pc < x; x >>= 4 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, uint64(pc), 16))
}

// classifyProgram classifies every kernel of a parsed program.
func classifyProgram(prog *ptx.Program) *api.ClassifyResult {
	resp := &api.ClassifyResult{Kernels: make([]api.Kernel, 0, len(prog.Kernels))}
	for _, k := range prog.Kernels {
		resp.Kernels = append(resp.Kernels, classifyKernel(k))
	}
	return resp
}

// classifySource runs the parse-and-classify pipeline on one source,
// reporting failures as the HTTP status the caller should relay: 400 for an
// empty source, 422 for source the parser rejects. It is the shared core of
// the single and batch classify handlers.
func classifySource(src string) (*api.ClassifyResult, int, error) {
	if strings.TrimSpace(src) == "" {
		return nil, http.StatusBadRequest, errors.New("empty PTX source")
	}
	prog, err := ptx.Parse(src)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("parsing PTX: %w", err)
	}
	return classifyProgram(prog), http.StatusOK, nil
}

// classifyFamily lowers a family spec to its labeled kernel and classifies
// it. Spec problems (unknown family, out-of-range knob) are client errors.
func classifyFamily(spec *families.Spec) (*api.ClassifyResult, int, error) {
	c, err := spec.Build()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return classifyProgram(&ptx.Program{Kernels: []*ptx.Kernel{c.Kernel}}), http.StatusOK, nil
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, bodyErrorStatus(err), "reading body: %v", err)
		return
	}
	src := string(body)
	if isJSONBody(r.Header.Get("Content-Type"), body) {
		var req api.ClassifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		if req.Family != nil {
			if strings.TrimSpace(req.PTX) != "" {
				writeError(w, http.StatusBadRequest, "ptx and family are mutually exclusive")
				return
			}
			resp, status, err := classifyFamily((*families.Spec)(req.Family))
			if err != nil {
				writeError(w, status, "%v", err)
				return
			}
			writeClassify(w, resp)
			return
		}
		src = req.PTX
	}
	resp, status, err := classifySource(src)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	writeClassify(w, resp)
}

// ---------------------------------------------------------------------------
// POST /v1/classify/batch

func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), "decoding request: %v", err)
		return
	}
	if err := api.ValidateBatchSize(len(req.Items)); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := api.ValidateBatchIDs(req.Items); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := classifyBatch(req.Items)
	s.metrics.observeBatch(len(resp.Items), resp.Failed)
	writeBatch(w, &resp)
}

// classifyBatch classifies each item on its own: a source that fails takes
// the status the single endpoint would answer and fails only its slot.
func classifyBatch(items []api.BatchItem) api.BatchResult {
	resp := api.BatchResult{Items: make([]api.BatchItemResult, 0, len(items))}
	for _, it := range items {
		out := api.BatchItemResult{ID: it.ID}
		res, status, err := classifySource(it.PTX)
		out.Status = status
		if err != nil {
			out.Error = err.Error()
			resp.Failed++
		} else {
			out.Result = res
			resp.Succeeded++
		}
		resp.Items = append(resp.Items, out)
	}
	return resp
}

// ---------------------------------------------------------------------------
// POST /v1/jobs, GET/DELETE /v1/jobs/{id}

// handleSubmit decodes an api.JobSpec. A family spec is resolved to its
// canonical workload name here, so caching, deduplication and the durable
// journal see family jobs through the same string identity as Table I jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), "decoding request: %v", err)
		return
	}
	if req.Family != nil {
		if req.Workload != "" {
			writeError(w, http.StatusBadRequest, "workload and family are mutually exclusive")
			return
		}
		canonical, err := (*families.Spec)(req.Family).CanonicalName()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		req.Workload = canonical
	}
	spec := jobs.Spec{
		Workload:         req.Workload,
		Mode:             jobs.Mode(req.Mode),
		Size:             req.Size,
		Seed:             req.Seed,
		MaxWarpInsts:     req.MaxWarpInsts,
		MaxCycles:        req.MaxCycles,
		Timeout:          time.Duration(req.TimeoutMillis) * time.Millisecond,
		ReuseCheckpoints: req.ReuseCheckpoints,
	}
	info, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
		writeJob(w, http.StatusAccepted, &info)
	case errors.Is(err, jobs.ErrQueueFull):
		// Push-back responses carry Retry-After so well-behaved clients
		// (pkg/client among them) know how long to hold off instead of
		// guessing a backoff against a saturated queue.
		w.Header().Set("Retry-After", retryAfterHint)
		writeError(w, http.StatusTooManyRequests, "queue full")
	case errors.Is(err, jobs.ErrClosed):
		w.Header().Set("Retry-After", retryAfterHint)
		writeError(w, http.StatusServiceUnavailable, "shutting down")
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitMS := r.URL.Query().Get("wait_ms"); waitMS != "" {
		ms, err := strconv.ParseInt(waitMS, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad wait_ms %q", waitMS)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		defer cancel()
		// A wait that times out is not an error: the client gets the
		// job's current (non-terminal) snapshot and polls again.
		info, err := s.mgr.Wait(ctx, id)
		if errors.Is(err, jobs.ErrNotFound) {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return
		}
		writeJob(w, http.StatusOK, &info)
		return
	}
	info, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJob(w, http.StatusOK, &info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJob(w, http.StatusOK, &info)
}

// ---------------------------------------------------------------------------
// GET /v1/workloads, /healthz, /metrics

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	resp := api.Catalog{Workloads: []api.Workload{}, Families: []api.Family{}}
	for _, wl := range workloads.All() {
		resp.Workloads = append(resp.Workloads, api.Workload{
			Name: wl.Name, Category: wl.Category.String(),
			Description: wl.Description, DataSet: wl.DataSet,
			Knobs: []api.Knob{wl.Size},
		})
	}
	for _, f := range families.List() {
		example, err := (&families.Spec{Name: f.Name}).CanonicalName()
		if err != nil {
			// Defaults are validated by the family's own tests; a failure
			// here is a registration bug, not a client error.
			continue
		}
		resp.Families = append(resp.Families, api.Family{
			Name: f.Name, Description: f.Description, Knobs: f.Knobs, Example: example,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := api.Health{Status: "ok"}
	if rec := s.mgr.Recovery(); rec.Enabled {
		body.Recovery = &rec
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}
