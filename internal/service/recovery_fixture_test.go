package service

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"probqos/internal/failure"
)

var (
	updateRecovery = flag.Bool("update", false,
		"rewrite the expected bodies of the recovery fixture under testdata/recovery")
	regenRecoveryInput = flag.Bool("recovery-input", false,
		"rewrite the recovery fixture's data dir; only when the on-disk format changes on purpose")
)

const recoveryDir = "testdata/recovery"

// recoveryConfig is the configuration the recovery fixture was written
// under: a manual clock over an 8-node trace with two predictable
// failures. The data dir's config digest pins it, so any change here makes
// recovery refuse the fixture.
func recoveryConfig(t *testing.T, dir string) Config {
	t.Helper()
	tr, err := failure.NewTrace(8, []failure.Event{
		{Time: 2000, Node: 1, Detectability: 0.3},
		{Time: 5000, Node: 5, Detectability: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.DataDir = dir
	cfg.SnapshotEvery = 1 << 20
	cfg.CrashHazard = 1e-12
	return cfg
}

// writeRecoveryInput drives a service through a fixed dialog, snapshots
// midway, and crashes it, leaving a snapshot plus a WAL tail holding
// session, take, admit, fault and advance records.
func writeRecoveryInput(t *testing.T, dir string) {
	t.Helper()
	s, err := New(recoveryConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
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
		step(http.StatusOK, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil)
	}

	quoteAccept(8, 2400)
	quoteAccept(2, 3600)
	quoteAccept(4, 1800)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 600}, nil)
	step(http.StatusAccepted, "POST", "/v1/faults",
		map[string]any{"node": 3, "after_seconds": 120}, nil)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 1800}, nil)
	var snapErr error
	if err := s.do(func() { snapErr = s.compact(false) }); err != nil || snapErr != nil {
		t.Fatalf("snapshot: %v %v", err, snapErr)
	}

	var q quoteResponse
	step(http.StatusOK, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 60}, &q)
	step(http.StatusBadRequest, "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 99}, nil)
	quoteAccept(3, 900)
	quoteAccept(6, 7200)
	step(http.StatusAccepted, "POST", "/v1/faults",
		map[string]any{"node": 0, "after_seconds": 300}, nil)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 2400}, nil)
	step(http.StatusOK, "POST", "/v1/quote", map[string]any{"nodes": 2, "exec_seconds": 600}, nil)
	crash(s)
}

// TestRecoveryFixture boots on a copy of a data dir written by an earlier
// build and compares what it serves, and the snapshot it leaves at clean
// shutdown, byte for byte against the committed expectations. It pins the
// on-disk layout (snapshot and WAL payloads) across refactors of the state
// machine.
func TestRecoveryFixture(t *testing.T) {
	input := filepath.Join(recoveryDir, "data")
	if *regenRecoveryInput {
		if err := os.RemoveAll(input); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(input, 0o755); err != nil {
			t.Fatal(err)
		}
		writeRecoveryInput(t, input)
	}
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(input, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(recoveryConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if info := s.RecoveryInfo(); !info.SnapshotLoaded || info.RecordsReplayed == 0 {
		t.Fatalf("fixture must exercise snapshot restore plus WAL replay, got %+v", info)
	}
	h := s.Handler()
	type body struct {
		file string
		data []byte
	}
	var got []body
	for _, e := range []struct{ file, path string }{
		{"state.json", "/v1/state"},
		{"jobs.json", "/v1/jobs"},
		{"conformance.json", "/qos/conformance?n=0"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", e.path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: code %d: %s", e.path, rec.Code, rec.Body)
		}
		got = append(got, body{e.file, rec.Body.Bytes()})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, body{"shutdown-snapshot.json", snap})

	for _, b := range got {
		path := filepath.Join(recoveryDir, b.file)
		if *updateRecovery {
			if err := os.WriteFile(path, b.data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(b.data, want) {
			t.Errorf("%s differs from the committed fixture:\ngot  %s\nwant %s", b.file, b.data, want)
		}
	}
}
