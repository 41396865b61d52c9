package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"probqos/internal/units"
)

// maxRenegotiations bounds the quote/accept rounds one promise may take
// before the client gives up and counts it as failed.
const maxRenegotiations = 8

// client is a closed-loop qosd user on one keep-alive connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// close drops the client's idle connection.
func (c *client) close() { c.tr.CloseIdleConnections() }

// call sends one request and returns its status and the time from sending
// the encoded body to having read the whole response. A 200 body is decoded
// into out when out is non-nil.
func (c *client) call(method, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	begin := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(begin), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(begin)
	if err != nil {
		return resp.StatusCode, dt, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, dt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, dt, nil
}

// Wire shapes of the qosd API, as a client sees them.
type (
	quoteReq struct {
		Nodes       int   `json:"nodes"`
		ExecSeconds int64 `json:"exec_seconds"`
	}
	offer struct {
		Offer    int        `json:"offer"`
		Start    units.Time `json:"start"`
		Deadline units.Time `json:"deadline"`
		Success  float64    `json:"success"`
	}
	quoteResp struct {
		SessionID string  `json:"session_id"`
		Quotes    []offer `json:"quotes"`
	}
	acceptReq struct {
		SessionID string `json:"session_id"`
		Offer     int    `json:"offer"`
	}
	acceptResp struct {
		JobID    int        `json:"job_id"`
		Start    units.Time `json:"start"`
		Deadline units.Time `json:"deadline"`
		Promised float64    `json:"promised"`
	}
	// stateResp is GET /v1/state; only the fields the benchmark reads are
	// named, the whole body is kept for the recovery comparison.
	stateResp struct {
		Jobs    int `json:"jobs"`
		Queued  int `json:"queued"`
		Running int `json:"running"`
	}
)

// depth is the backlog: admitted jobs whose promise is still open.
func (s stateResp) depth() int { return s.Queued + s.Running }

// tally is what the client observed.
type tally struct {
	quotes, accepts, promises []time.Duration
	held                      []acceptResp

	attempted, failed int
	acceptTries       int
	conflicts         int // accepts answered 409 (slot taken) or 404 (session gone)
	renegotiations    int
	offers            int // offers received while negotiating held promises
}

// choose picks the earliest offer promising at least u, or, when none
// does, the most likely one. Offers arrive earliest deadline first.
func choose(offers []offer, u float64) offer {
	best := offers[0]
	for _, o := range offers {
		if o.Success >= u {
			return o
		}
		if o.Success > best.Success {
			best = o
		}
	}
	return best
}

// promise negotiates one job to a held promise: quote, accept the chosen
// offer, and on 409 or 404 quote again, up to maxRenegotiations rounds. A
// 5xx, a transport error or running out of rounds counts as failed.
func (c *client) promise(t *tally, q quoteReq, u float64) {
	t.attempted++
	begin := time.Now()
	offers := 0
	for round := 0; round < maxRenegotiations; round++ {
		if round > 0 {
			t.renegotiations++
		}
		var qr quoteResp
		code, dt, err := c.call("POST", "/v1/quote", q, &qr)
		t.quotes = append(t.quotes, dt)
		if err != nil || code != http.StatusOK || len(qr.Quotes) == 0 {
			logf("quote %+v: status %d, %d offers, err %v", q, code, len(qr.Quotes), err)
			t.failed++
			return
		}
		offers += len(qr.Quotes)
		pick := choose(qr.Quotes, u)
		var ar acceptResp
		code, dt, err = c.call("POST", "/v1/accept", acceptReq{qr.SessionID, pick.Offer}, &ar)
		t.accepts = append(t.accepts, dt)
		t.acceptTries++
		switch {
		case err != nil:
			logf("accept: %v", err)
			t.failed++
			return
		case code == http.StatusOK:
			t.promises = append(t.promises, time.Since(begin))
			t.held = append(t.held, ar)
			t.offers += offers
			return
		case code == http.StatusConflict || code == http.StatusNotFound:
			t.conflicts++
		default:
			logf("accept: status %d", code)
			t.failed++
			return
		}
	}
	logf("promise for %+v not held after %d rounds", q, maxRenegotiations)
	t.failed++
}

// state reads GET /v1/state, returning the decoded fields and the raw body.
func (c *client) state() (stateResp, []byte, error) {
	var raw json.RawMessage
	code, _, err := c.call("GET", "/v1/state", nil, &raw)
	if err != nil {
		return stateResp{}, nil, err
	}
	if code != http.StatusOK {
		return stateResp{}, nil, fmt.Errorf("GET /v1/state: status %d", code)
	}
	var st stateResp
	if err := json.Unmarshal(raw, &st); err != nil {
		return stateResp{}, nil, err
	}
	return st, raw, nil
}
