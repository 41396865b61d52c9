package main

// endToEnd builds the end-to-end metrics every workload reports. A result
// is what the workload's user waits for: one complete sweep of Figures 1-6,
// or one held qosd promise (first quote to accepted offer).
func endToEnd(setupS float64, resultMs []float64, resultsPerS, heap float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"result_ms_p50": {median(append([]float64(nil), resultMs...)), "ms"},
		"result_ms_p90": {quantile(resultMs, 0.90), "ms"},
		"results_per_s": {resultsPerS, "1/s"},
		"heap_mb":       {heap, "MB"},
	}
}

// layerUnits lists every per-layer metric with its unit. Each workload
// reports all of them; a layer the workload does not reach reads 0.
var layerUnits = map[string]string{
	// experiment and sim, from the sweep's traced run.
	"experiment.points":          "count",
	"experiment.serial_s":        "s",
	"experiment.speedup":         "ratio",
	"sim.run_ms_p50":             "ms",
	"sim.run_ms_max":             "ms",
	"sim.dispatch_self_s":        "s",
	"sim.negotiate_s":            "s",
	"sim.schedule_s":             "s",
	"sim.checkpoint_s":           "s",
	"sim.events":                 "count",
	"sim.quotes":                 "count",
	"sim.reserves":               "count",
	"sim.backfills":              "count",
	"sim.start_slips":            "count",
	"sim.checkpoint_grants":      "count",
	"sim.checkpoint_skips":       "count",
	"sim.failure_kills":          "count",
	"sim.offers_per_job":         "ratio",
	"sim.checkpoint_grant_ratio": "ratio",

	// sim inside qosd, from its request spans.
	"sim.quotes_ms_p50": "ms",
	"sim.quotes_ms_p99": "ms",
	"sim.admit_us_p50":  "us",

	// durability, from qosd's wal.append and snapshot spans.
	"durability.wal_append_us_p50":       "us",
	"durability.wal_append_us_p99":       "us",
	"durability.wal_records":             "count",
	"durability.wal_bytes":               "bytes",
	"durability.snapshots":               "count",
	"durability.snapshot_ms_total":       "ms",
	"durability.snapshot_bytes_max":      "bytes",
	"negotiate.book_open_us_p50":         "us",
	"negotiate.book_take_us_p50":         "us",
	"negotiate.offers_per_promise":       "ratio",
	"service.quote_self_us_p50":          "us",
	"service.accept_self_us_p50":         "us",
	"service.loop_busy_frac":             "ratio",
	"service.accept_conflict_ratio":      "ratio",
	"service.renegotiations_per_promise": "ratio",
	"service.depth_start":                "count",
	"service.depth_end":                  "count",
	"service.tracing_overhead":           "ratio",

	// Client-observed request times, from the untraced window of the
	// traced run.
	"client.quote_ms_p50":  "ms",
	"client.quote_ms_p99":  "ms",
	"client.accept_ms_p50": "ms",
	"client.accept_ms_p99": "ms",
}

// perLayer attaches units to a workload's per-layer values and fills every
// metric the workload did not measure with 0.
func perLayer(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{values[name], unit}
	}
	for name := range values {
		if _, ok := layerUnits[name]; !ok {
			panic("qosbench: per-layer metric " + name + " has no unit")
		}
	}
	return out
}
