package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/promise"
	"probqos/internal/trace"
)

// newTracedService is newTestService with request tracing enabled.
func newTracedService(t *testing.T, nodes int) *Service {
	t.Helper()
	tr, err := failure.NewTrace(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Tracer = trace.New(16384)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// callRec is call but returns the full recorder, for header assertions.
func callRec(t *testing.T, h http.Handler, method, path string, hdr map[string]string, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestTraceHeaderGeneratedAndEchoed(t *testing.T) {
	s := newTracedService(t, 8)
	h := s.Handler()

	// No inbound ID: the server mints one and reports it.
	rec := callRec(t, h, "POST", "/v1/quote", nil, `{"nodes":2,"exec_seconds":600}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("quote: %d", rec.Code)
	}
	id := rec.Header().Get("X-Qos-Trace")
	if len(id) != 16 {
		t.Fatalf("generated trace ID %q, want 16 hex chars", id)
	}
	st := rec.Header().Get("Server-Timing")
	for _, span := range []string{"http.quote;dur=", "quote;dur=", "book.open;dur="} {
		if !strings.Contains(st, span) {
			t.Errorf("Server-Timing %q missing %q", st, span)
		}
	}

	// An inbound ID is honored verbatim, so retries correlate.
	rec = callRec(t, h, "GET", "/v1/state",
		map[string]string{"X-Qos-Trace": "deadbeefcafef00d"}, "")
	if got := rec.Header().Get("X-Qos-Trace"); got != "deadbeefcafef00d" {
		t.Errorf("inbound trace ID not echoed: %q", got)
	}
}

func TestTraceDisabledPaysNothingVisible(t *testing.T) {
	s := newTestService(t, 8)
	h := s.Handler()

	// No tracer: no minted ID, no Server-Timing...
	rec := callRec(t, h, "GET", "/v1/state", nil, "")
	if got := rec.Header().Get("X-Qos-Trace"); got != "" {
		t.Errorf("untraced server minted trace ID %q", got)
	}
	if got := rec.Header().Get("Server-Timing"); got != "" {
		t.Errorf("untraced server sent Server-Timing %q", got)
	}
	// ...but an inbound ID is still echoed for client-side correlation.
	rec = callRec(t, h, "GET", "/v1/state",
		map[string]string{"X-Qos-Trace": "deadbeefcafef00d"}, "")
	if got := rec.Header().Get("X-Qos-Trace"); got != "deadbeefcafef00d" {
		t.Errorf("inbound trace ID not echoed while disabled: %q", got)
	}
	// ...and /debug/trace explains itself.
	rec = callRec(t, h, "GET", "/debug/trace", nil, "")
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "tracing disabled") {
		t.Errorf("/debug/trace while disabled: %d %s", rec.Code, rec.Body.String())
	}
}

func TestDebugTraceFiltersByID(t *testing.T) {
	s := newTracedService(t, 8)
	h := s.Handler()

	ids := []string{"1111111111111111", "2222222222222222"}
	for _, id := range ids {
		rec := callRec(t, h, "POST", "/v1/quote",
			map[string]string{"X-Qos-Trace": id}, `{"nodes":1,"exec_seconds":60}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("quote %s: %d", id, rec.Code)
		}
	}

	var chrome struct {
		Events []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	rec := callRec(t, h, "GET", "/debug/trace?trace="+ids[0], nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(chrome.Events) == 0 {
		t.Fatal("no spans for filtered trace")
	}
	for _, ev := range chrome.Events {
		if ev.Args["trace"] != ids[0] {
			t.Errorf("span %q from trace %q leaked into filter for %s", ev.Name, ev.Args["trace"], ids[0])
		}
	}

	// Unfiltered export carries both traces.
	rec = callRec(t, h, "GET", "/debug/trace", nil, "")
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range chrome.Events {
		seen[ev.Args["trace"]] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("unfiltered export missing trace %s", id)
		}
	}
}

func TestConformanceEndpoint(t *testing.T) {
	s := newTestService(t, 8)
	h := s.Handler()

	var q quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 2, "exec_seconds": 600}, &q); code != http.StatusOK {
		t.Fatalf("quote: %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("accept: %d", code)
	}

	// Open promise: visible immediately, pending.
	var rep conformanceResponse
	if code := call(t, h, "GET", "/qos/conformance", nil, &rep); code != http.StatusOK {
		t.Fatalf("conformance: %d", code)
	}
	if rep.Promises != 1 || rep.Open != 1 || rep.Settled != 0 {
		t.Fatalf("open promise not reported: %+v", rep.ConformanceStats)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Outcome != promise.OutcomePending {
		t.Fatalf("entries: %+v", rep.Entries)
	}

	// Completion settles it as kept.
	if code := call(t, h, "POST", "/v1/advance",
		map[string]any{"by_seconds": 86400}, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	if code := call(t, h, "GET", "/qos/conformance", nil, &rep); code != http.StatusOK {
		t.Fatalf("conformance: %d", code)
	}
	if rep.Settled != 1 || rep.Kept != 1 || rep.KeepingRate != 1 {
		t.Fatalf("settled promise not reported: %+v", rep.ConformanceStats)
	}
	if rep.Entries[0].Outcome != promise.OutcomeKept || rep.Entries[0].SettledAt == 0 {
		t.Fatalf("entry not settled: %+v", rep.Entries[0])
	}
	wantBrier := (1 - rep.Entries[0].Promised) * (1 - rep.Entries[0].Promised)
	if diff := rep.Brier - wantBrier; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("brier %v, want %v", rep.Brier, wantBrier)
	}

	// ?n=0 lifts the tail bound (every row); a bad n is rejected.
	if code := call(t, h, "GET", "/qos/conformance?n=0", nil, &rep); code != http.StatusOK {
		t.Fatalf("conformance?n=0: %d", code)
	}
	if len(rep.Entries) != 1 || rep.Settled != 1 {
		t.Errorf("n=0: entries=%d stats=%+v", len(rep.Entries), rep.ConformanceStats)
	}
	if code := call(t, h, "GET", "/qos/conformance?n=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("conformance?n=bogus: %d, want 400", code)
	}

	// The scrape-side gauges agree with the JSON view.
	srv := httptest.NewServer(h)
	defer srv.Close()
	m := scrapeMetrics(t, srv.URL)
	if m[`qosd_promises{outcome="kept"}`] != 1 || m[`qosd_promise_keeping_rate`] != 1 {
		t.Errorf("conformance gauges: kept=%v rate=%v",
			m[`qosd_promises{outcome="kept"}`], m[`qosd_promise_keeping_rate`])
	}
}
