package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probqos/internal/durability"
	"probqos/internal/failure"
	"probqos/internal/sim"
)

// durableConfig builds a config over an 8-node empty trace writing to dir,
// with compaction effectively disabled so tests control the WAL contents.
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.DataDir = dir
	cfg.SnapshotEvery = 1 << 20
	cfg.CrashHazard = 1e-12
	return cfg
}

// crash simulates a kill -9 for a service that never called Start: the
// state machine stops without the drain record or shutdown snapshot, so
// the data dir is left exactly as a power loss would.
func crash(s *Service) {
	if s.stop.CompareAndSwap(false, true) {
		close(s.quit)
	}
	<-s.done
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// fingerprint serializes everything a recovered machine must reproduce:
// the engine's journal and clock, per-job status, aggregate stats, the
// session book, the ID counter, and the promise ledger.
func fingerprint(t *testing.T, m *machine) string {
	t.Helper()
	jobs := map[int]sim.JobStatus{}
	for _, id := range m.eng.JobIDs() {
		js, _ := m.eng.Job(id)
		jobs[id] = js
	}
	data, err := json.Marshal(map[string]any{
		"engine":  m.eng.ExportState(),
		"stats":   m.eng.Stats(),
		"jobs":    jobs,
		"book":    m.book.Export(),
		"next_id": m.eng.NextJobID(),
		"ledger":  m.eng.Ledger().Export(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// driveDialog runs a fixed negotiation script through the handler stack:
// three admitted jobs, one rejected offer, an injected fault, and clock
// advances. Deterministic, so two services driven by it stay identical.
func driveDialog(t *testing.T, h http.Handler) {
	t.Helper()
	step := func(wantCode int, method, path string, body, out any) {
		t.Helper()
		if code := call(t, h, method, path, body, out); code != wantCode {
			t.Fatalf("%s %s: code %d, want %d", method, path, code, wantCode)
		}
	}
	quoteAccept := func(nodes, exec int) {
		t.Helper()
		var q quoteResponse
		step(http.StatusOK, "POST", "/v1/quote",
			map[string]any{"nodes": nodes, "exec_seconds": exec}, &q)
		if q.SessionID == "" || len(q.Quotes) == 0 {
			t.Fatalf("no offers for %d nodes", nodes)
		}
		step(http.StatusOK, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil)
	}

	quoteAccept(2, 3600)
	quoteAccept(4, 1800)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 600}, nil)

	// A quote left to expire, and an accept of a bad offer rank.
	var q quoteResponse
	step(http.StatusOK, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, &q)
	step(http.StatusBadRequest, "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 99}, nil)

	step(http.StatusAccepted, "POST", "/v1/faults",
		map[string]any{"node": 3, "after_seconds": 120}, nil)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 1800}, nil)
	quoteAccept(3, 900)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 7200}, nil)
}

// frameBoundaries returns the byte offset after each complete WAL frame.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	var bounds []int
	off := 0
	for off+8 <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + length
		if off > len(data) {
			t.Fatalf("torn frame in a crashed-but-unfailed WAL at %d", off)
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// TestKillAtEveryRecordBoundary is the crash-recovery sweep: for a WAL of
// n records left behind by a killed service, recovery from every prefix of
// k complete records (and from torn tails cut mid-record) must reproduce
// exactly the state of a reference machine that applied the first k
// records.
func TestKillAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	crash(s)

	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := durability.DecodeRecords(data)
	if int(valid) != len(data) || len(recs) < 10 {
		t.Fatalf("expected a fully valid WAL of >= 10 records, got %d records, %d/%d bytes valid",
			len(recs), valid, len(data))
	}
	bounds := frameBoundaries(t, data)

	// Cut points: every record boundary (0 = empty log), plus torn tails
	// at random offsets strictly inside a frame.
	type cut struct {
		bytes   int // prefix length written to the new data dir
		records int // complete records that prefix holds
	}
	cuts := []cut{{0, 0}}
	for i, b := range bounds {
		cuts = append(cuts, cut{b, i + 1})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		k := rng.Intn(len(bounds))
		lo := 0
		if k > 0 {
			lo = bounds[k-1]
		}
		if bounds[k]-lo < 2 {
			continue
		}
		torn := lo + 1 + rng.Intn(bounds[k]-lo-1)
		cuts = append(cuts, cut{torn, k})
	}

	for _, c := range cuts {
		t.Run(fmt.Sprintf("bytes=%d records=%d", c.bytes, c.records), func(t *testing.T) {
			// Reference: a fresh machine applying the surviving records.
			ref, err := newMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs[:c.records] {
				var op walOp
				if err := json.Unmarshal(rec.Payload, &op); err != nil {
					t.Fatal(err)
				}
				if err := ref.apply(op); err != nil {
					t.Fatal(err)
				}
			}

			// Recovered: a service booting from the truncated WAL.
			cutDir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), data[:c.bytes], 0o644); err != nil {
				t.Fatal(err)
			}
			cutCfg := durableConfig(t, cutDir)
			rs, err := New(cutCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			info := rs.RecoveryInfo()
			if !info.Enabled || info.Clean || info.RecordsReplayed != c.records {
				t.Errorf("recovery info %+v, want crash recovery of %d records", info, c.records)
			}
			if got, want := fingerprint(t, &rs.machine), fingerprint(t, &ref); got != want {
				t.Errorf("recovered state diverges from reference:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCrashMidWorkloadRecovers kills the service halfway through a
// workload, restarts it from the data dir, finishes the workload, and
// checks the outcome matches an uninterrupted in-memory run.
func TestCrashMidWorkloadRecovers(t *testing.T) {
	firstHalf := func(t *testing.T, h http.Handler) string {
		t.Helper()
		var q quoteResponse
		if code := call(t, h, "POST", "/v1/quote",
			map[string]any{"nodes": 4, "exec_seconds": 3600}, &q); code != http.StatusOK {
			t.Fatalf("quote: %d", code)
		}
		if code := call(t, h, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
			t.Fatalf("accept: %d", code)
		}
		if code := call(t, h, "POST", "/v1/advance",
			map[string]any{"by_seconds": 300}, nil); code != http.StatusOK {
			t.Fatalf("advance: %d", code)
		}
		// An open session that must survive the crash.
		var open quoteResponse
		if code := call(t, h, "POST", "/v1/quote",
			map[string]any{"nodes": 2, "exec_seconds": 600}, &open); code != http.StatusOK {
			t.Fatalf("quote: %d", code)
		}
		return open.SessionID
	}
	secondHalf := func(t *testing.T, h http.Handler, session string) {
		t.Helper()
		if code := call(t, h, "POST", "/v1/accept",
			map[string]any{"session_id": session, "offer": 1}, nil); code != http.StatusOK {
			t.Fatalf("accept recovered session: %d", code)
		}
		if code := call(t, h, "POST", "/v1/advance",
			map[string]any{"by_seconds": 86400}, nil); code != http.StatusOK {
			t.Fatalf("advance: %d", code)
		}
	}

	// Interrupted run.
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	session := firstHalf(t, s.Handler())
	crash(s)
	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.RecoveryInfo(); info.Clean || info.RecordsReplayed == 0 {
		t.Fatalf("expected crash recovery with records, got %+v", info)
	}
	secondHalf(t, s2.Handler(), session)

	// Uninterrupted reference, in-memory.
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(DefaultConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refSession := firstHalf(t, ref.Handler())
	secondHalf(t, ref.Handler(), refSession)

	if got, want := fingerprint(t, &s2.machine), fingerprint(t, &ref.machine); got != want {
		t.Errorf("recovered run diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestCleanRestartReplaysNothing checks the graceful path: Close leaves a
// shutdown snapshot and an empty WAL, and the next boot reports it clean.
func TestCleanRestartReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	want := fingerprint(t, &s.machine)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.RecoveryInfo()
	if !info.Clean || !info.SnapshotLoaded || info.RecordsReplayed != 0 {
		t.Fatalf("clean restart info %+v", info)
	}
	if got := fingerprint(t, &s2.machine); got != want {
		t.Errorf("clean restart diverges:\n got %s\nwant %s", got, want)
	}
}

// TestRecoveryRefusesForeignConfig checks the config-digest guard: a data
// dir written under one cluster must not silently replay under another.
func TestRecoveryRefusesForeignConfig(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(t, dir)
	cfg.Accuracy = 0.9 // different predictor: replay would diverge
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "refusing to replay") {
		t.Fatalf("foreign config accepted: %v", err)
	}
}

// TestDegradedModeServesReadsAndHeals forces WAL append failures and
// checks the contract: mutations 503, quotes and reads still answered,
// /healthz and the gauge report it, and service resumes once the disk
// heals — with the data dir still consistent across a restart.
func TestDegradedModeServesReadsAndHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := durability.NewFaultFS(durability.OSFS{})
	cfg := durableConfig(t, dir)
	cfg.FS = ffs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Healthy: one admitted job.
	var q quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 2, "exec_seconds": 600}, &q); code != http.StatusOK {
		t.Fatalf("quote: %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("accept: %d", code)
	}

	// Break the disk. The first mutation to hit the WAL flips to degraded.
	ffs.FailSync(true)
	if code := call(t, h, "POST", "/v1/advance",
		map[string]any{"by_seconds": 60}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("advance on broken disk: code %d, want 503", code)
	}

	// Degraded: quotes and reads work, admits are refused.
	var dq quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, &dq); code != http.StatusOK {
		t.Fatalf("quote while degraded: %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": dq.SessionID, "offer": 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("accept while degraded: code %d, want 503", code)
	}
	if code := call(t, h, "GET", "/v1/jobs/1", nil, nil); code != http.StatusOK {
		t.Fatalf("read while degraded: %d", code)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "degraded" || health["wal_error"] == "" {
		t.Errorf("healthz while degraded: %v", health)
	}
	if m := scrapeMetrics(t, srv.URL); m[`qosd_degraded`] != 1 {
		t.Errorf("qosd_degraded = %v, want 1", m[`qosd_degraded`])
	}

	// Heal the disk: the next request's probe restores service, and the
	// degraded-window session (memory-only) is now acceptable.
	ffs.Clear()
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": dq.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("accept after heal: code %d, want 200", code)
	}
	if m := scrapeMetrics(t, srv.URL); m[`qosd_degraded`] != 0 {
		t.Errorf("qosd_degraded after heal = %v, want 0", m[`qosd_degraded`])
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz after heal: %v", health)
	}

	// The dir is consistent: a restart sees both admitted jobs.
	want := fingerprint(t, &s.machine)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(t, &s2.machine); got != want {
		t.Errorf("post-heal restart diverges:\n got %s\nwant %s", got, want)
	}
	if st := s2.eng.Stats(); st.Queued+st.Running+st.Completed != 2 {
		t.Errorf("expected 2 live jobs after restart, got %+v", st)
	}
}

// TestPromiseLedgerSurvivesCrash pins the ledger's durability story: the
// ledger is derived state, rebuilt record by record during WAL replay, so
// a kill -9 loses no admitted promise and no settled outcome — and
// settlement after recovery continues exactly where the live run left off.
func TestPromiseLedgerSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	before := s.eng.Ledger().Export()
	if len(before.Promises) != 3 {
		t.Fatalf("dialog admitted %d promises, want 3", len(before.Promises))
	}
	crash(s)

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after := s2.eng.Ledger().Export()
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(after)
	if string(b1) != string(b2) {
		t.Errorf("recovered ledger diverges:\n got %s\nwant %s", b2, b1)
	}

	// Settlement resumes on the recovered ledger: a week of virtual time
	// drives every open promise to a terminal outcome.
	if code := call(t, s2.Handler(), "POST", "/v1/advance",
		map[string]any{"by_seconds": 7 * 86400}, nil); code != http.StatusOK {
		t.Fatalf("advance after recovery: %d", code)
	}
	st := s2.eng.Ledger().Stats()
	if st.Open != 0 || st.Settled != 3 {
		t.Fatalf("after a week: %+v, want all 3 promises settled", st)
	}
	if st.Kept+st.Broken != st.Settled {
		t.Errorf("kept %d + broken %d != settled %d", st.Kept, st.Broken, st.Settled)
	}
	for _, p := range s2.eng.Ledger().Entries(0) {
		if p.Outcome == "pending" {
			t.Errorf("job %d still pending after a week", p.JobID)
		}
	}
}

// TestPromiseLedgerSurvivesSnapshot pins the other recovery path: a clean
// shutdown folds the ledger into the snapshot, and the next boot imports
// it without replaying a single record.
func TestPromiseLedgerSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	before := s.eng.Ledger().Export()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.RecoveryInfo(); !info.Clean || info.RecordsReplayed != 0 {
		t.Fatalf("expected clean snapshot-only restart, got %+v", info)
	}
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(s2.eng.Ledger().Export())
	if string(b1) != string(b2) {
		t.Errorf("snapshot-restored ledger diverges:\n got %s\nwant %s", b2, b1)
	}
}

// TestDegradedQuoteSessionIsMemoryOnly pins the documented relaxation: a
// session quoted while degraded is not journaled, so it does not survive
// a crash — the client renegotiates, no promise is broken.
func TestDegradedQuoteSessionIsMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := durability.NewFaultFS(durability.OSFS{})
	cfg := durableConfig(t, dir)
	cfg.FS = ffs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	ffs.FailSync(true)
	call(t, h, "POST", "/v1/advance", map[string]any{"by_seconds": 1}, nil) // trip degraded
	var q quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, &q); code != http.StatusOK {
		t.Fatalf("quote while degraded: %d", code)
	}
	ffs.Clear()
	crash(s)

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if code := call(t, s2.Handler(), "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("memory-only session should 404 after crash, got %d", code)
	}
}
