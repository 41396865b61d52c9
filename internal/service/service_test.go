package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/units"
)

// newTestService builds a service over an empty failure trace with a
// manual clock.
func newTestService(t *testing.T, nodes int) *Service {
	t.Helper()
	tr, err := failure.NewTrace(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// call sends one request through the full handler stack and decodes the
// JSON response into out (when out is non-nil).
func call(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestQuoteAcceptLifecycle(t *testing.T) {
	s := newTestService(t, 8)
	h := s.Handler()

	var quote quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 4, "exec_seconds": 3600}, &quote); code != http.StatusOK {
		t.Fatalf("quote: code %d", code)
	}
	if quote.SessionID == "" || len(quote.Quotes) == 0 {
		t.Fatalf("no offers on an empty cluster: %+v", quote)
	}
	if quote.Quotes[0].Success <= 0 || quote.Quotes[0].Success > 1 {
		t.Fatalf("offer success %v outside (0,1]", quote.Quotes[0].Success)
	}

	var acc acceptResponse
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, &acc); code != http.StatusOK {
		t.Fatalf("accept: code %d", code)
	}
	if acc.JobID == 0 || acc.Deadline != quote.Quotes[0].Deadline {
		t.Fatalf("accept response %+v does not match offer %+v", acc, quote.Quotes[0])
	}

	// A second accept of the same session must fail: the dialog is settled.
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("re-accept: code %d, want 404", code)
	}

	var st map[string]any
	if code := call(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", acc.JobID), nil, &st); code != http.StatusOK {
		t.Fatalf("job status: code %d", code)
	}
	if st["state"] != "queued" {
		t.Fatalf("state %v before the clock moves, want queued", st["state"])
	}

	// Run the virtual clock past the deadline: the empty trace has no
	// failures, so the job must complete and the promise hold.
	if code := call(t, h, "POST", "/v1/advance",
		map[string]any{"to": acc.Deadline.Add(units.Hour)}, nil); code != http.StatusOK {
		t.Fatalf("advance: code %d", code)
	}
	if code := call(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", acc.JobID), nil, &st); code != http.StatusOK {
		t.Fatalf("job status: code %d", code)
	}
	if st["state"] != "completed" || st["met_deadline"] != true {
		t.Fatalf("job did not complete on time: %+v", st)
	}
}

func TestAcceptStaleQuoteConflicts(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()

	var quote quoteResponse
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 4, "exec_seconds": 600}, &quote)
	// Move the clock beyond the offer's start while the client dithers
	// (but within the session TTL): the slot is gone.
	call(t, h, "POST", "/v1/advance",
		map[string]any{"to": quote.Quotes[0].Start.Add(30 * units.Minute)}, nil)
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, nil); code != http.StatusConflict {
		t.Fatalf("stale accept: code %d, want 409", code)
	}
}

func TestQuoteRejectsOversizeJob(t *testing.T) {
	s := newTestService(t, 4)
	if code := call(t, s.Handler(), "POST", "/v1/quote",
		map[string]any{"nodes": 5, "exec_seconds": 60}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("oversize quote: code %d, want 422", code)
	}
}

func TestFaultInjectionBreaksPromise(t *testing.T) {
	s := newTestService(t, 2)
	h := s.Handler()

	var quote quoteResponse
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 2, "exec_seconds": 7200}, &quote)
	var acc acceptResponse
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, &acc); code != http.StatusOK {
		t.Fatalf("accept: code %d", code)
	}

	// Kill a node mid-run, repeatedly enough that the two-node job cannot
	// recover before its deadline (the trace predictor never saw these, so
	// no quote priced them in).
	at := acc.Start.Add(1800)
	for i := 0; i < 40; i++ {
		if code := call(t, h, "POST", "/v1/faults",
			map[string]any{"node": 0, "at": at}, nil); code != http.StatusAccepted {
			t.Fatalf("fault injection: code %d", code)
		}
		at = at.Add(1800)
	}
	call(t, h, "POST", "/v1/advance", map[string]any{"to": acc.Deadline.Add(units.Hour)}, nil)

	var st map[string]any
	call(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", acc.JobID), nil, &st)
	if st["state"] != "missed" {
		t.Fatalf("state %v after saturating faults, want missed", st["state"])
	}
	if n := st["failures_suffered"].(float64); n == 0 {
		t.Fatal("job records no suffered failures")
	}
}

func TestAdmissionControl(t *testing.T) {
	tr, _ := failure.NewTrace(16, nil)
	cfg := DefaultConfig(tr)
	cfg.MaxOutstanding = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	var q1, q2 quoteResponse
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 3600}, &q1)
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 3600}, &q2)
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q1.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("first accept: code %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q2.SessionID, "offer": 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit accept: code %d, want 503", code)
	}
}

func TestStrictDecoding(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()
	for _, body := range []string{
		``, `{`, `{"nodes": 1}`, `{"nodes": 1, "exec_seconds": 0}`,
		`{"nodes": -1, "exec_seconds": 60}`,
		`{"nodes": 1, "exec_seconds": 60, "bogus": true}`,
		`{"nodes": 1, "exec_seconds": 60} trailing`,
	} {
		req := httptest.NewRequest("POST", "/v1/quote", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, rec.Code)
		}
	}
}

func TestMetricsExposed(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 60}, nil)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: code %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"qosd_requests_total", "qosd_request_seconds", "qosd_sessions_opened_total",
		"qosd_virtual_time_seconds", "qosd_jobs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: code %d", rec.Code)
	}
}

func TestCloseRefusesNewWork(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close quote: code %d, want 503", code)
	}
}

// TestClockOffsetsPastForeverRejected pins the end of virtual time: a fault
// or advance whose instant lands past units.Forever — by an absolute value
// or by an offset from now that would overflow — is a 400 that journals
// nothing and leaves the clock and the event queue alone. Instants up to
// Forever itself are accepted.
func TestClockOffsetsPastForeverRejected(t *testing.T) {
	const maxInt64 = "9223372036854775807"
	forever := strconv.FormatInt(int64(units.Forever), 10)
	justPast := strconv.FormatInt(int64(units.Forever)+1, 10)
	// The clock sits at 100, so this offset lands one second past Forever.
	overshoot := strconv.FormatInt(int64(units.Forever)-99, 10)
	tests := []struct {
		name, path, body string
		want             int
	}{
		{"fault after max int64", "/v1/faults", `{"node":3,"after_seconds":` + maxInt64 + `}`, http.StatusBadRequest},
		{"fault after overshoot", "/v1/faults", `{"node":3,"after_seconds":` + overshoot + `}`, http.StatusBadRequest},
		{"fault at past forever", "/v1/faults", `{"node":3,"at":` + justPast + `}`, http.StatusBadRequest},
		{"fault at max int64", "/v1/faults", `{"node":3,"at":` + maxInt64 + `}`, http.StatusBadRequest},
		{"advance by max int64", "/v1/advance", `{"by_seconds":` + maxInt64 + `}`, http.StatusBadRequest},
		{"advance by overshoot", "/v1/advance", `{"by_seconds":` + overshoot + `}`, http.StatusBadRequest},
		{"advance to past forever", "/v1/advance", `{"to":` + justPast + `}`, http.StatusBadRequest},
		{"fault at forever", "/v1/faults", `{"node":3,"at":` + forever + `}`, http.StatusAccepted},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(durableConfig(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			if code := call(t, h, "POST", "/v1/advance", map[string]any{"by_seconds": 100}, nil); code != http.StatusOK {
				t.Fatalf("setup advance: code %d", code)
			}
			walBefore, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", tt.path, strings.NewReader(tt.body)))
			if rec.Code != tt.want {
				t.Fatalf("code %d, want %d: %s", rec.Code, tt.want, rec.Body)
			}
			if tt.want != http.StatusBadRequest {
				return
			}
			walAfter, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			if len(walAfter) != len(walBefore) {
				t.Errorf("rejected request grew the WAL from %d to %d bytes", len(walBefore), len(walAfter))
			}
			var st stateResponse
			call(t, h, "GET", "/v1/state", nil, &st)
			if st.Now != 100 || st.PendingEvents != 0 {
				t.Errorf("rejected request moved state: now %v, pending events %d", st.Now, st.PendingEvents)
			}
		})
	}
}
