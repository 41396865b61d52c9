package service

import (
	"testing"
	"unicode/utf8"

	"probqos/internal/units"
)

// FuzzDecodeQuoteRequest hammers the first parser qosd exposes to the
// network. The decoder must never panic, and every request it does accept
// must satisfy the documented invariants — the handler builds jobs and
// reservation walks straight from these fields.
func FuzzDecodeQuoteRequest(f *testing.F) {
	f.Add([]byte(`{"nodes": 4, "exec_seconds": 3600}`))
	f.Add([]byte(`{"nodes": 1, "exec_seconds": 1, "max_quotes": 3}`))
	f.Add([]byte(`{"nodes": 128, "exec_seconds": 86400, "max_quotes": 32}`))
	f.Add([]byte(`{"nodes": 0, "exec_seconds": 0}`))
	f.Add([]byte(`{"nodes": -1, "exec_seconds": -9223372036854775808}`))
	f.Add([]byte(`{"nodes": 1e9, "exec_seconds": 1e300}`))
	f.Add([]byte(`{"nodes": 1, "exec_seconds": 60, "bogus": true}`))
	f.Add([]byte(`{"nodes": 1, "exec_seconds": 60} {"again": 1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte("{\"nodes\":1,\"exec_seconds\":60}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeQuoteRequest(data)
		if err != nil {
			return
		}
		if q.Nodes <= 0 || q.ExecSeconds <= 0 || q.MaxQuotes < 0 {
			t.Fatalf("accepted out-of-range request %+v from %q", q, data)
		}
		if !utf8.Valid(data) {
			// encoding/json replaces invalid UTF-8 rather than erroring;
			// the decoded ints are still range-checked, so this is fine —
			// the assertion documents that acceptance is intentional.
			t.Logf("accepted non-UTF-8 input %q", data)
		}
	})
}

// FuzzDecodeAcceptRequest: an accepted accept request always names a
// session; the offer rank is range-checked against that session later.
func FuzzDecodeAcceptRequest(f *testing.F) {
	f.Add([]byte(`{"session_id": "q-1", "offer": 1}`))
	f.Add([]byte(`{"session_id": "q-1", "offer": -5}`))
	f.Add([]byte(`{"session_id": "", "offer": 1}`))
	f.Add([]byte(`{"offer": 1}`))
	f.Add([]byte(`{"session_id": 7}`))
	f.Add([]byte(`{"session_id": "q-1", "offer": 1, "bogus": true}`))
	f.Add([]byte(`{"session_id": "q-1"} {"offer": 2}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAcceptRequest(data)
		if err != nil {
			return
		}
		if a.SessionID == "" {
			t.Fatalf("accepted a request without a session from %q", data)
		}
	})
}

// FuzzDecodeAdvanceRequest: an accepted advance sets exactly one of to and
// by_seconds, and that one lies in (0, units.Forever], so now + offset is
// bounded before the handler adds it.
func FuzzDecodeAdvanceRequest(f *testing.F) {
	f.Add([]byte(`{"by_seconds": 600}`))
	f.Add([]byte(`{"to": 86400}`))
	f.Add([]byte(`{"to": 10, "by_seconds": 10}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"by_seconds": -1}`))
	f.Add([]byte(`{"by_seconds": 9223372036854775807}`))
	f.Add([]byte(`{"to": 4611686018427387904}`))
	f.Add([]byte(`{"to": 4611686018427387903}`))
	f.Add([]byte(`{"by_seconds": 1.5}`))
	f.Add([]byte(`{"by_seconds": 60, "bogus": 1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAdvanceRequest(data)
		if err != nil {
			return
		}
		if (a.To != 0) == (a.BySeconds != 0) {
			t.Fatalf("accepted %+v from %q: want exactly one of to and by_seconds", a, data)
		}
		if a.To < 0 || a.To > units.Forever || a.BySeconds < 0 || a.BySeconds > int64(units.Forever) {
			t.Fatalf("accepted out-of-range %+v from %q", a, data)
		}
	})
}

// FuzzDecodeFaultRequest: an accepted fault sets at most one of at and
// after_seconds, each in [0, units.Forever]; the node is range-checked
// against the cluster later.
func FuzzDecodeFaultRequest(f *testing.F) {
	f.Add([]byte(`{"node": 3}`))
	f.Add([]byte(`{"node": 0, "after_seconds": 120}`))
	f.Add([]byte(`{"node": 1, "at": 3600}`))
	f.Add([]byte(`{"node": 1, "at": 3600, "after_seconds": 5}`))
	f.Add([]byte(`{"node": 3, "after_seconds": 9223372036854775807}`))
	f.Add([]byte(`{"node": 3, "at": -1}`))
	f.Add([]byte(`{"node": -1}`))
	f.Add([]byte(`{"node": 3, "at": 4611686018427387903}`))
	f.Add([]byte(`{"node": "3"}`))
	f.Add([]byte(`{"node": 3} []`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeFaultRequest(data)
		if err != nil {
			return
		}
		if r.At != 0 && r.AfterSeconds != 0 {
			t.Fatalf("accepted %+v from %q: both at and after_seconds", r, data)
		}
		if r.At < 0 || r.At > units.Forever || r.AfterSeconds < 0 || r.AfterSeconds > int64(units.Forever) {
			t.Fatalf("accepted out-of-range %+v from %q", r, data)
		}
	})
}
