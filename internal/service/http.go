package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"probqos/internal/promise"
	"probqos/internal/sim"
	"probqos/internal/trace"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// traceHeader carries the request's trace ID: echoed back on every
// response, and accepted inbound so qosctl (and retried attempts of one
// logical call) correlate with server-side spans.
const traceHeader = "X-Qos-Trace"

// Wire limits. Request bodies are tiny JSON objects; anything bigger is a
// client bug or abuse.
const (
	maxBodyBytes = 1 << 16
	maxQuotesCap = 32
)

// quoteRequest asks for offers: "when could a job of this shape finish,
// and with what probability?" (§3.5, the user's opening move).
type quoteRequest struct {
	// Nodes is the job size n_j.
	Nodes int `json:"nodes"`
	// ExecSeconds is the checkpoint-free execution time e_j.
	ExecSeconds int64 `json:"exec_seconds"`
	// MaxQuotes optionally caps the offers returned (default and ceiling
	// come from the service config).
	MaxQuotes int `json:"max_quotes,omitempty"`
}

// validate applies the wire-level sanity checks.
func (q quoteRequest) validate() error {
	switch {
	case q.Nodes <= 0:
		return fmt.Errorf("nodes must be positive, got %d", q.Nodes)
	case q.ExecSeconds <= 0:
		return fmt.Errorf("exec_seconds must be positive, got %d", q.ExecSeconds)
	case q.MaxQuotes < 0:
		return fmt.Errorf("max_quotes must be non-negative, got %d", q.MaxQuotes)
	}
	return nil
}

// The request decoders strictly parse a body: unknown fields, trailing
// data, and out-of-range values are all errors. They are standalone so the
// fuzz targets drive exactly what the handlers run.
var (
	decodeQuoteRequest   = decodeRequest[quoteRequest]
	decodeAcceptRequest  = decodeRequest[acceptRequest]
	decodeFaultRequest   = decodeRequest[faultRequest]
	decodeAdvanceRequest = decodeRequest[advanceRequest]
)

// decodeRequest parses one JSON value into a T and applies T's validate
// checks, returning the zero T on any error.
func decodeRequest[T interface{ validate() error }](data []byte) (T, error) {
	var req, zero T
	if err := decodeStrict(data, &req); err != nil {
		return zero, err
	}
	if err := req.validate(); err != nil {
		return zero, err
	}
	return req, nil
}

// decodeStrict unmarshals one JSON value into v, rejecting unknown fields
// and trailing content.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// wireQuote is one offer as it appears on the wire. The candidate node set
// stays server-side: it is scheduler internals, and echoing it would invite
// clients to depend on placement.
type wireQuote struct {
	// Offer is the 1-based rank to pass back in an accept request.
	Offer    int        `json:"offer"`
	Start    units.Time `json:"start"`
	Deadline units.Time `json:"deadline"`
	Success  float64    `json:"success"`
}

type quoteResponse struct {
	SessionID string      `json:"session_id,omitempty"`
	Now       units.Time  `json:"now"`
	Expires   units.Time  `json:"expires,omitempty"`
	Quotes    []wireQuote `json:"quotes"`
}

type acceptRequest struct {
	SessionID string `json:"session_id"`
	// Offer is the 1-based rank of the accepted quote. Its range depends
	// on the session, so the handler checks it after consuming the session.
	Offer int `json:"offer"`
}

// validate requires the session ID.
func (a acceptRequest) validate() error {
	if a.SessionID == "" {
		return errors.New("session_id is required")
	}
	return nil
}

type acceptResponse struct {
	JobID    int        `json:"job_id"`
	Start    units.Time `json:"start"`
	Deadline units.Time `json:"deadline"`
	Promised float64    `json:"promised"`
}

type faultRequest struct {
	// Node's range depends on the cluster, so the handler checks it.
	Node int `json:"node"`
	// At schedules the failure at an absolute virtual instant; AfterSeconds
	// offsets from now. Zero values mean "fail now".
	At           units.Time `json:"at,omitempty"`
	AfterSeconds int64      `json:"after_seconds,omitempty"`
}

// validate allows at most one of at and after_seconds, each in
// [0, units.Forever].
func (f faultRequest) validate() error {
	switch {
	case f.At != 0 && f.AfterSeconds != 0:
		return errors.New("set at most one of at and after_seconds")
	case f.At < 0 || f.AfterSeconds < 0:
		return errors.New("fault instant must be non-negative")
	case f.At > units.Forever || f.AfterSeconds > int64(units.Forever):
		return errPastForever
	}
	return nil
}

type advanceRequest struct {
	// To is an absolute virtual instant; BySeconds offsets from now.
	// Exactly one must be set.
	To        units.Time `json:"to,omitempty"`
	BySeconds int64      `json:"by_seconds,omitempty"`
}

// validate requires exactly one of to and by_seconds, positive and at
// most units.Forever.
func (a advanceRequest) validate() error {
	switch {
	case (a.To != 0) == (a.BySeconds != 0):
		return errors.New("set exactly one of to and by_seconds")
	case a.To < 0 || a.BySeconds < 0:
		return errors.New("cannot advance the clock backwards")
	case a.To > units.Forever || a.BySeconds > int64(units.Forever):
		return errPastForever
	}
	return nil
}

// errPastForever rejects an instant beyond the end of virtual time;
// bounding every instant by units.Forever also keeps now + offset from
// overflowing.
var errPastForever = fmt.Errorf("instant lands past the end of virtual time (%d)", int64(units.Forever))

// offsetFrom returns now + d, or errPastForever when that lands past
// units.Forever. d must be non-negative.
func offsetFrom(now units.Time, d int64) (units.Time, error) {
	if d > int64(units.Forever-now) {
		return 0, errPastForever
	}
	return now.Add(units.Duration(d)), nil
}

type stateResponse struct {
	sim.Stats
	OpenSessions    int `json:"open_sessions"`
	ExpiredSessions int `json:"expired_sessions"`
}

// conformanceResponse is the live promise ledger: streaming stats plus a
// tail of individual ledger rows.
type conformanceResponse struct {
	promise.ConformanceStats
	Entries []promise.Promise `json:"entries,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the full qosd API mux, with the obs endpoints
// (/metrics, /healthz, /snapshot) mounted alongside /v1, the live promise
// ledger on /qos/conformance, and the span-trace export on /debug/trace.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.obsSrv.Handler())
	mux.HandleFunc("POST /v1/quote", s.instrumented("quote", s.handleQuote))
	mux.HandleFunc("POST /v1/accept", s.instrumented("accept", s.handleAccept))
	mux.HandleFunc("GET /v1/jobs", s.instrumented("jobs", s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrumented("job", s.handleJob))
	mux.HandleFunc("POST /v1/faults", s.instrumented("faults", s.handleFault))
	mux.HandleFunc("POST /v1/advance", s.instrumented("advance", s.handleAdvance))
	mux.HandleFunc("GET /v1/state", s.instrumented("state", s.handleState))
	mux.HandleFunc("GET /qos/conformance", s.instrumented("conformance", s.handleConformance))
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// apiHandler produces a status code and a response body (or an error).
// The scope is the request's trace collector — nil when tracing is
// disabled, and every trace.Scope method is nil-safe, so handlers use it
// unconditionally.
type apiHandler func(r *http.Request, sc *trace.Scope) (int, any, error)

// instrumented adapts an apiHandler to http.HandlerFunc: it assigns (or
// propagates) the request's trace ID, records the per-endpoint counter
// and latency histogram, echoes span timings in a Server-Timing header,
// and renders JSON. When tracing is disabled the only extra work is one
// header lookup.
func (s *Service) instrumented(endpoint string, h apiHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		var sc *trace.Scope
		traceID := r.Header.Get(traceHeader)
		if s.tracer.Enabled() {
			if traceID == "" {
				traceID = trace.NewTraceID()
			}
			sc = s.tracer.StartScope(traceID)
		}
		if traceID != "" {
			// Echo even with tracing off, so clients correlate retries.
			w.Header().Set(traceHeader, traceID)
		}
		hs := sc.Start("http." + endpoint)
		code, body, err := h(r, sc)
		hs.End()
		if err != nil {
			body = errorResponse{Error: err.Error()}
		}
		if st := trace.ServerTiming(sc.Spans()); st != "" {
			w.Header().Set("Server-Timing", st)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
		sc.Flush()
		s.observeRequest(endpoint, code, time.Since(begin))
	}
}

// readBody slurps a bounded request body.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return data, nil
}

// errCode maps a state-machine error to its HTTP status.
func errCode(err error) int {
	switch {
	case errors.Is(err, errClosed), errors.Is(err, errDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleQuote(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	req, err := decodeQuoteRequest(data)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	if req.Nodes > s.cfg.Nodes {
		return http.StatusUnprocessableEntity, nil,
			fmt.Errorf("job needs %d nodes but the cluster has %d", req.Nodes, s.cfg.Nodes)
	}
	max := s.cfg.MaxQuotes
	if req.MaxQuotes > 0 && req.MaxQuotes < max {
		max = req.MaxQuotes
	}

	var resp quoteResponse
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			return
		}
		qs := sc.Start("quote")
		qs.Annotate("nodes", strconv.Itoa(req.Nodes))
		quotes := s.eng.Quotes(req.Nodes, units.Duration(req.ExecSeconds), max)
		qs.Annotate("offers", strconv.Itoa(len(quotes)))
		qs.End()
		resp.Now = s.eng.Now()
		resp.Quotes = make([]wireQuote, len(quotes))
		for i, q := range quotes {
			resp.Quotes[i] = wireQuote{
				Offer:    i + 1,
				Start:    q.Candidate.Start,
				Deadline: q.Deadline,
				Success:  q.Success,
			}
		}
		if len(quotes) > 0 {
			bs := sc.Start("book.open")
			sess := s.book.Open(s.eng.Now(), req.Nodes, units.Duration(req.ExecSeconds), quotes)
			bs.Annotate("session", sess.ID)
			bs.End()
			// Journaled after the fact, deliberately: losing a session
			// record (crash here, or a degraded log) costs the client a 404
			// on accept — renegotiate — never a broken promise. A degraded
			// log thus still quotes; the session is just memory-only.
			s.logOp(walOp{Kind: opSession, Session: sess})
			resp.SessionID = sess.ID
			resp.Expires = sess.Expires
			s.reg.Counter("qosd_sessions_opened_total", "negotiation sessions opened", nil).Inc()
			s.reg.Counter("qosd_quotes_issued_total", "individual offers extended", nil).
				Add(float64(len(quotes)))
		}
		s.updateGauges()
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, resp, nil
}

func (s *Service) handleAccept(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	req, err := decodeAcceptRequest(data)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}

	var (
		resp acceptResponse
		code int
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			code = errCode(err)
			return
		}
		defer s.updateGauges()
		// An accept creates a promise, which must hit stable storage before
		// it is made. While the log is down, refuse up front.
		if s.degraded != nil {
			s.countAccept("degraded")
			code, err = http.StatusServiceUnavailable, errDegraded
			return
		}
		expiredBefore := s.book.Expired()
		ts := sc.Start("book.take")
		ts.Annotate("session", req.SessionID)
		sess, ok := s.book.Take(req.SessionID, s.eng.Now())
		ts.End()
		if !ok {
			if s.book.Expired() != expiredBefore {
				// The take lapsed a real session (not a bogus ID): journal
				// the state change. If the log just failed, replay converges
				// anyway — the next advance sweeps the lapsed session.
				s.logOp(walOp{Kind: opTake, SessionID: req.SessionID})
			}
			s.countAccept("expired")
			code, err = http.StatusNotFound,
				fmt.Errorf("session %q unknown or expired; request a fresh quote", req.SessionID)
			return
		}
		// From here on the session is consumed, a state change that must be
		// journaled; on a log failure put it back and refuse, as if the
		// request never happened.
		if req.Offer < 1 || req.Offer > len(sess.Quotes) {
			if lerr := s.logOp(walOp{Kind: opTake, SessionID: sess.ID}); lerr != nil {
				s.book.Insert(sess)
				code, err = http.StatusServiceUnavailable, lerr
				return
			}
			s.countAccept("rejected")
			code, err = http.StatusBadRequest,
				fmt.Errorf("offer %d outside 1..%d", req.Offer, len(sess.Quotes))
			return
		}
		if s.cfg.MaxOutstanding > 0 && s.eng.Stats().Outstanding() >= s.cfg.MaxOutstanding {
			if lerr := s.logOp(walOp{Kind: opTake, SessionID: sess.ID}); lerr != nil {
				s.book.Insert(sess)
				code, err = http.StatusServiceUnavailable, lerr
				return
			}
			s.countAccept("rejected")
			code, err = http.StatusServiceUnavailable,
				fmt.Errorf("admission limit reached (%d outstanding jobs); retry later", s.cfg.MaxOutstanding)
			return
		}
		quote := sess.Quotes[req.Offer-1]
		job := workload.Job{
			ID:      s.eng.NextJobID(),
			Arrival: s.eng.Now(),
			Nodes:   sess.Size,
			Exec:    sess.Exec,
		}
		// The admit record carries the full job and quote, so replay never
		// depends on a session record existing (memory-only sessions from a
		// degraded window stay admittable after healing).
		op := walOp{Kind: opAdmit, SessionID: sess.ID, Job: &job, Quote: &quote, Offers: req.Offer}
		if lerr := s.logOp(op); lerr != nil {
			s.book.Insert(sess)
			code, err = http.StatusServiceUnavailable, lerr
			return
		}
		as := sc.Start("admit")
		as.Annotate("job", strconv.Itoa(job.ID))
		admitErr := s.applyAdmit(op)
		as.End()
		if admitErr != nil {
			// The quoted slot is gone: the clock moved past its start, or a
			// competing accept claimed the nodes first. Renegotiation is the
			// protocol's answer, so this is a conflict, not a server error.
			// Replay re-enacts the same rejection from the journaled record.
			s.countAccept("conflict")
			code, err = http.StatusConflict, fmt.Errorf("quote no longer holds: %w", admitErr)
			return
		}
		s.countAccept("accepted")
		resp = acceptResponse{
			JobID:    job.ID,
			Start:    quote.Candidate.Start,
			Deadline: quote.Deadline,
			Promised: quote.Success,
		}
		code = http.StatusOK
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return code, nil, err
	}
	return code, resp, nil
}

func (s *Service) handleJob(r *http.Request, sc *trace.Scope) (int, any, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return http.StatusBadRequest, nil, fmt.Errorf("job id %q is not an integer", r.PathValue("id"))
	}
	var (
		status sim.JobStatus
		ok     bool
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			return
		}
		status, ok = s.eng.Job(id)
		s.updateGauges()
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	if !ok {
		return http.StatusNotFound, nil, fmt.Errorf("no job %d", id)
	}
	return http.StatusOK, status, nil
}

func (s *Service) handleJobs(r *http.Request, sc *trace.Scope) (int, any, error) {
	var (
		list []sim.JobStatus
		err  error
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			return
		}
		ids := s.eng.JobIDs()
		list = make([]sim.JobStatus, 0, len(ids))
		for _, id := range ids {
			if st, ok := s.eng.Job(id); ok {
				list = append(list, st)
			}
		}
		s.updateGauges()
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, list, nil
}

func (s *Service) handleFault(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	req, err := decodeFaultRequest(data)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}

	var (
		at   units.Time
		code int
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			code = errCode(err)
			return
		}
		// Validate before journaling so the log holds no junk records; the
		// at-clamp below makes the engine's own checks unreachable.
		if req.Node < 0 || req.Node >= s.cfg.Nodes {
			code, err = http.StatusBadRequest,
				fmt.Errorf("node %d outside [0,%d)", req.Node, s.cfg.Nodes)
			return
		}
		at = req.At
		if req.AfterSeconds > 0 {
			if at, err = offsetFrom(s.eng.Now(), req.AfterSeconds); err != nil {
				code = http.StatusBadRequest
				return
			}
		}
		if at < s.eng.Now() {
			at = s.eng.Now()
		}
		op := walOp{Kind: opFault, Node: req.Node, At: at}
		if lerr := s.logOp(op); lerr != nil {
			code, err = http.StatusServiceUnavailable, lerr
			return
		}
		if injErr := s.eng.InjectFailure(op.Node, op.At); injErr != nil {
			code, err = http.StatusBadRequest, injErr
			return
		}
		s.reg.Counter("qosd_faults_injected_total", "failures injected via the API", nil).Inc()
		s.updateGauges()
		code = http.StatusAccepted
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return code, nil, err
	}
	return code, map[string]any{"node": req.Node, "at": at}, nil
}

func (s *Service) handleAdvance(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	req, err := decodeAdvanceRequest(data)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}

	var (
		now  units.Time
		code int
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			code = errCode(err)
			return
		}
		target := req.To
		if req.BySeconds > 0 {
			if target, err = offsetFrom(s.eng.Now(), req.BySeconds); err != nil {
				code = http.StatusBadRequest
				return
			}
		}
		if err = s.advanceTo(target); err != nil {
			code = errCode(err)
			return
		}
		now = s.eng.Now()
		s.updateGauges()
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return code, nil, err
	}
	return http.StatusOK, map[string]units.Time{"now": now}, nil
}

func (s *Service) handleState(r *http.Request, sc *trace.Scope) (int, any, error) {
	var (
		resp stateResponse
		err  error
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			return
		}
		resp.Stats = s.eng.Stats()
		resp.OpenSessions = s.book.Len()
		resp.ExpiredSessions = s.book.Expired()
		s.updateGauges()
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, resp, nil
}

// defaultConformanceTail bounds the ledger rows echoed by /qos/conformance
// unless ?n= asks for more (n=0 means every row).
const defaultConformanceTail = 1000

func (s *Service) handleConformance(r *http.Request, sc *trace.Scope) (int, any, error) {
	tail := defaultConformanceTail
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return http.StatusBadRequest, nil, errors.New("invalid n")
		}
		tail = n
	}
	var (
		resp conformanceResponse
		err  error
	)
	doErr := s.doTraced(sc, func() {
		if err = s.tick(); err != nil {
			return
		}
		resp.ConformanceStats = s.eng.Ledger().Stats()
		resp.Entries = s.eng.Ledger().Entries(tail)
		s.updateGauges()
	})
	if doErr != nil {
		return errCode(doErr), nil, doErr
	}
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, resp, nil
}

// handleTrace streams the retained spans as Chrome trace_event JSON. It
// bypasses the instrumented wrapper because its body is the export itself,
// not an API object — but it still counts in the request metrics.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	if !s.tracer.Enabled() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(errorResponse{
			Error: "tracing disabled; start qosd with a span budget (-trace-spans)"})
		s.observeRequest("trace", http.StatusNotFound, time.Since(begin))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tracer.Export(w, r.URL.Query().Get("trace"))
	s.observeRequest("trace", http.StatusOK, time.Since(begin))
}
