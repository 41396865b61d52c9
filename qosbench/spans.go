package main

import (
	"strconv"
	"strings"
	"time"

	"probqos/internal/trace"
)

// loopSpans are the spans qosd records on its single state-machine
// goroutine. Their sum over wall time is a lower bound on how busy that
// loop was: time spent between spans (ticks, gauge upkeep) is not covered.
var loopSpans = map[string]bool{
	"quote": true, "book.open": true, "book.take": true, "admit": true,
	"wal.append": true, "snapshot": true,
}

// qosdLayers derives the per-layer metrics of a qosd workload: client
// request times from the untraced window u, and span-derived layer times
// from the traced window t, counting only spans that started inside it.
func qosdLayers(u, t measured, spans []trace.Span, windowStart time.Time) map[string]float64 {
	var (
		byName   = map[string][]float64{} // span durations in µs
		children = map[string]time.Duration{}
		http     []trace.Span
		walBytes float64
		snapMax  float64
		loopBusy time.Duration
	)
	for _, sp := range spans {
		if sp.Start.Before(windowStart) {
			continue
		}
		byName[sp.Name] = append(byName[sp.Name], float64(sp.Dur)/float64(time.Microsecond))
		if strings.HasPrefix(sp.Name, "http.") {
			http = append(http, sp)
			continue
		}
		children[sp.TraceID] += sp.Dur
		if loopSpans[sp.Name] {
			loopBusy += sp.Dur
		}
		b, _ := strconv.ParseFloat(sp.Args["bytes"], 64)
		switch sp.Name {
		case "wal.append":
			walBytes += b
		case "snapshot":
			snapMax = max(snapMax, b)
		}
	}
	// Each request has its own trace ID, so an http.<endpoint> span's self
	// time is its duration minus every other span of its trace.
	self := map[string][]float64{}
	for _, sp := range http {
		self[sp.Name] = append(self[sp.Name], float64(sp.Dur-children[sp.TraceID])/float64(time.Microsecond))
	}
	p50 := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
	var snapTotal float64
	for _, d := range byName["snapshot"] {
		snapTotal += d
	}
	promises := float64(len(t.t.promises))
	l := map[string]float64{
		"sim.quotes_ms_p50": p50(byName["quote"]) / 1000,
		"sim.quotes_ms_p99": quantile(byName["quote"], 0.99) / 1000,
		"sim.admit_us_p50":  p50(byName["admit"]),

		"durability.wal_append_us_p50":  p50(byName["wal.append"]),
		"durability.wal_append_us_p99":  quantile(byName["wal.append"], 0.99),
		"durability.wal_records":        float64(len(byName["wal.append"])),
		"durability.wal_bytes":          walBytes,
		"durability.snapshots":          float64(len(byName["snapshot"])),
		"durability.snapshot_ms_total":  snapTotal / 1000,
		"durability.snapshot_bytes_max": snapMax,

		"negotiate.book_open_us_p50":   p50(byName["book.open"]),
		"negotiate.book_take_us_p50":   p50(byName["book.take"]),
		"negotiate.offers_per_promise": ratio(float64(t.t.offers), promises),

		"service.quote_self_us_p50":          p50(self["http.quote"]),
		"service.accept_self_us_p50":         p50(self["http.accept"]),
		"service.loop_busy_frac":             loopBusy.Seconds() / t.wall.Seconds(),
		"service.accept_conflict_ratio":      ratio(float64(t.t.conflicts), float64(t.t.acceptTries)),
		"service.renegotiations_per_promise": ratio(float64(t.t.renegotiations), promises),
		"service.depth_start":                float64(u.start.depth()),
		"service.depth_end":                  float64(u.end.depth()),
		"service.tracing_overhead":           ratio(median(ms(t.t.promises)), median(ms(u.t.promises))),

		"client.quote_ms_p50":  median(ms(u.t.quotes)),
		"client.quote_ms_p99":  quantile(ms(u.t.quotes), 0.99),
		"client.accept_ms_p50": median(ms(u.t.accepts)),
		"client.accept_ms_p99": quantile(ms(u.t.accepts), 0.99),
	}
	return l
}
