package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/promise"
	"probqos/internal/trace"
)

// TestObservabilityEndToEnd is the tracing/conformance acceptance test: a
// durable qosd on a real listener, 48 concurrent dialogs racing a chaos
// goroutine, every client tagging its dialog with one trace ID. It then
// holds the observability layer to account:
//
//	(a) every admitted session appears in the promise ledger exactly once
//	    and ends in a terminal outcome;
//	(b) the reported keeping rate and Brier score match an offline
//	    recomputation from the raw ledger rows;
//	(c) /debug/trace serves valid Chrome trace_event JSON whose spans for
//	    a sampled dialog cover quote → admit → WAL fsync.
//
// With QOSD_E2E_ARTIFACTS=DIR the Chrome trace and the conformance
// snapshot are written there, which CI uploads as build artifacts.
func TestObservabilityEndToEnd(t *testing.T) {
	const (
		sessions = 48
		nodes    = 64
	)
	tr, err := failure.NewTrace(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.DataDir = t.TempDir()
	cfg.Tracer = trace.New(1 << 16)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr, err := svc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	do := func(method, path, traceID string, body, out any) (int, error) {
		var rd io.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				return 0, err
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return 0, err
		}
		if traceID != "" {
			req.Header.Set("X-Qos-Trace", traceID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	// Chaos: scattered future faults plus a creeping clock, so some
	// promises break and clients hit stale-quote conflicts.
	var faultsInjected atomic.Int64
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for i := 0; i < 20; i++ {
			code, err := do("POST", "/v1/faults", "",
				map[string]any{"node": (i * 7) % nodes, "after_seconds": 900 + 450*i}, nil)
			if err == nil && code == http.StatusAccepted {
				faultsInjected.Add(1)
			}
			do("POST", "/v1/advance", "", map[string]any{"by_seconds": 30}, nil)
		}
	}()

	// Each dialog mints one trace ID and reuses it for every quote/accept
	// attempt, exactly as qosctl does across retries.
	type held struct {
		jobID    int
		deadline int64
		promised float64
		traceID  string
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		promises []held
	)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traceID := fmt.Sprintf("%016x", 0xe2e0000+i)
			size := 1 + i%8
			exec := 600 + 300*(i%10)
			for attempt := 0; attempt < 200; attempt++ {
				var quote quoteResponse
				code, err := do("POST", "/v1/quote", traceID,
					map[string]any{"nodes": size, "exec_seconds": exec}, &quote)
				if err != nil {
					t.Errorf("session %d: quote: %v", i, err)
					return
				}
				if code != http.StatusOK || len(quote.Quotes) == 0 {
					continue
				}
				offer := 1 + i%len(quote.Quotes)
				var acc acceptResponse
				code, err = do("POST", "/v1/accept", traceID,
					map[string]any{"session_id": quote.SessionID, "offer": offer}, &acc)
				if err != nil {
					t.Errorf("session %d: accept: %v", i, err)
					return
				}
				switch code {
				case http.StatusOK:
					mu.Lock()
					promises = append(promises, held{
						jobID:    acc.JobID,
						deadline: int64(acc.Deadline),
						promised: quote.Quotes[offer-1].Success,
						traceID:  traceID,
					})
					mu.Unlock()
					return
				case http.StatusConflict, http.StatusNotFound:
					continue
				default:
					t.Errorf("session %d: accept returned %d", i, code)
					return
				}
			}
			t.Errorf("session %d: no acceptance in 200 attempts", i)
		}(i)
	}
	wg.Wait()
	<-chaosDone
	if t.Failed() {
		return
	}
	if len(promises) != sessions {
		t.Fatalf("%d promises from %d sessions", len(promises), sessions)
	}

	// Drive every promise to its verdict.
	var horizon int64
	for _, p := range promises {
		if p.deadline > horizon {
			horizon = p.deadline
		}
	}
	if code, err := do("POST", "/v1/advance", "", map[string]any{"to": horizon + 7200}, nil); err != nil || code != http.StatusOK {
		t.Fatalf("final advance: code %d, err %v", code, err)
	}

	// (a) The ledger holds each admitted session exactly once, terminal.
	var rep conformanceResponse
	if code, err := do("GET", "/qos/conformance?n=0", "", nil, &rep); err != nil || code != http.StatusOK {
		t.Fatalf("conformance: code %d, err %v", code, err)
	}
	if rep.Promises != sessions || len(rep.Entries) != sessions {
		t.Fatalf("ledger holds %d promises, %d rows; want %d", rep.Promises, len(rep.Entries), sessions)
	}
	byJob := make(map[int]promise.Promise, sessions)
	for _, e := range rep.Entries {
		if _, dup := byJob[e.JobID]; dup {
			t.Errorf("job %d appears twice in the ledger", e.JobID)
		}
		byJob[e.JobID] = e
		if e.Outcome != promise.OutcomeKept && e.Outcome != promise.OutcomeBroken {
			t.Errorf("job %d outcome %q past the horizon", e.JobID, e.Outcome)
		}
	}
	for _, p := range promises {
		e, ok := byJob[p.jobID]
		if !ok {
			t.Errorf("admitted job %d missing from the ledger", p.jobID)
			continue
		}
		if math.Abs(e.Promised-p.promised) > 1e-12 {
			t.Errorf("job %d: ledger promised %v, client accepted %v", p.jobID, e.Promised, p.promised)
		}
		if int64(e.Deadline) != p.deadline {
			t.Errorf("job %d: ledger deadline %d, client accepted %d", p.jobID, e.Deadline, p.deadline)
		}
	}

	// (b) Streaming stats equal an offline recomputation over the rows.
	kept, brierSum := 0, 0.0
	for _, e := range rep.Entries {
		outcome := 0.0
		if e.Outcome == promise.OutcomeKept {
			kept++
			outcome = 1
		}
		brierSum += (e.Promised - outcome) * (e.Promised - outcome)
	}
	if rep.Settled != sessions || rep.Kept != kept || rep.Broken != sessions-kept {
		t.Errorf("stats %+v; offline kept=%d broken=%d", rep.ConformanceStats, kept, sessions-kept)
	}
	if want := float64(kept) / float64(sessions); math.Abs(rep.KeepingRate-want) > 1e-9 {
		t.Errorf("keeping rate %v, offline %v", rep.KeepingRate, want)
	}
	if want := brierSum / float64(sessions); math.Abs(rep.Brier-want) > 1e-9 {
		t.Errorf("brier %v, offline %v", rep.Brier, want)
	}
	var binSettled int
	for _, b := range rep.Bins {
		binSettled += b.Settled
	}
	if binSettled != sessions {
		t.Errorf("reliability bins hold %d settled, want %d", binSettled, sessions)
	}
	// The scrape-side gauges tell the same story.
	m := scrapeMetrics(t, base)
	if got := m[`qosd_promises{outcome="kept"}`]; got != float64(kept) {
		t.Errorf(`qosd_promises{outcome="kept"} = %v, want %d`, got, kept)
	}
	if got := m[`qosd_promise_keeping_rate`]; math.Abs(got-rep.KeepingRate) > 1e-9 {
		t.Errorf("qosd_promise_keeping_rate = %v, want %v", got, rep.KeepingRate)
	}
	if _, ok := m[`go_goroutines`]; !ok {
		t.Error("runtime metrics missing from /metrics")
	}

	// (c) A sampled dialog's trace is valid Chrome JSON covering
	// quote → admit → WAL fsync.
	sample := promises[len(promises)-1]
	var chrome struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		Events          []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	resp, err := http.Get(base + "/debug/trace?trace=" + sample.traceID)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace: code %d, err %v", resp.StatusCode, err)
	}
	if err := json.Unmarshal(sampled, &chrome); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if chrome.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", chrome.DisplayTimeUnit)
	}
	seen := map[string]bool{}
	for _, ev := range chrome.Events {
		if ev.Phase != "X" || ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("malformed event %+v", ev)
		}
		if ev.Args["trace"] != sample.traceID {
			t.Errorf("event %q belongs to trace %q, filtered for %s", ev.Name, ev.Args["trace"], sample.traceID)
		}
		seen[ev.Name] = true
	}
	for _, span := range []string{"http.quote", "quote", "http.accept", "admit", "wal.append"} {
		if !seen[span] {
			t.Errorf("sampled dialog trace missing span %q (has %v)", span, seen)
		}
	}

	// Ship the evidence when CI asks for it.
	if dir := os.Getenv("QOSD_E2E_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		full, err := http.Get(base + "/debug/trace")
		if err != nil {
			t.Fatal(err)
		}
		fullTrace, err := io.ReadAll(full.Body)
		full.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		conf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"chrome-trace.json": fullTrace,
			"conformance.json":  conf,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("artifacts written to %s", dir)
	}
}
