package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"probqos/internal/experiment"
	"probqos/internal/metrics"
	"probqos/internal/sim"
)

// The sweep workload regenerates Figures 1-6 (QoS, utilization and lost
// work against prediction accuracy) the way a researcher does offline: a
// fresh experiment.Env at sweepJobs jobs per log, then experiment.RunAll on
// every CPU. Those figures share 66 distinct simulation points: two logs, 11
// accuracies and three user strategies.
//
// The Env is always built from sweepEnvSeed, qossweep's default, because the
// sweep's cost depends strongly on the generated logs: across Env seeds
// 11-20 one sweep took from 1.5 s to 5.1 s on the same machine. The
// benchmark's --seed instead orders the figures handed to RunAll, which
// changes how points are scheduled on the workers but must not change a
// single byte of the tables.
const (
	sweepJobs    = 2000
	sweepEnvSeed = 0
)

var (
	sweepFigures = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"}
	sweepLogs    = []string{"SDSC", "NASA"}
	sweepAs      = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	sweepUs      = []float64{0.1, 0.5, 0.9}
)

// sweepPoint is one (log, a, U) simulation point of the figures.
type sweepPoint struct {
	log  string
	a, u float64
}

func sweepPoints() []sweepPoint {
	var pts []sweepPoint
	for _, log := range sweepLogs {
		for _, a := range sweepAs {
			for _, u := range sweepUs {
				pts = append(pts, sweepPoint{log, a, u})
			}
		}
	}
	return pts
}

// sweepEnv is one freshly set-up experiment environment and the number of
// points it has computed.
type sweepEnv struct {
	env    *experiment.Env
	points *atomic.Int64
}

// newSweepEnv builds an Env and generates its logs and failure trace, which
// is the sweep's set-up; it returns the time that took.
func newSweepEnv(workers int) (sweepEnv, time.Duration, error) {
	begin := time.Now()
	env := experiment.NewEnv()
	env.JobCount = sweepJobs
	env.Seed = sweepEnvSeed
	env.Workers = workers
	points := new(atomic.Int64)
	env.Progress = func(done, _ int) { points.Store(int64(done)) }
	for _, log := range sweepLogs {
		if _, err := env.Log(log); err != nil {
			return sweepEnv{}, 0, err
		}
	}
	if _, err := env.Trace(); err != nil {
		return sweepEnv{}, 0, err
	}
	return sweepEnv{env, points}, time.Since(begin), nil
}

// runFigures runs the figures on env in the given order with the given
// worker count and returns every table rendered in figure order, as
// qossweep prints them.
func runFigures(env *experiment.Env, order []int, workers int) (string, error) {
	exps := make([]experiment.Experiment, len(order))
	for i, fig := range order {
		exp, ok := experiment.ByID(sweepFigures[fig])
		if !ok {
			return "", fmt.Errorf("no experiment %q", sweepFigures[fig])
		}
		exps[i] = exp
	}
	results := experiment.RunAll(env, exps, workers)
	byFig := make([]experiment.RunResult, len(sweepFigures))
	for i, fig := range order {
		byFig[fig] = results[i]
	}
	var out strings.Builder
	for _, r := range byFig {
		if r.Err != nil {
			return "", fmt.Errorf("%s: %w", r.Exp.ID, r.Err)
		}
		for _, t := range r.Tables {
			if err := t.WriteText(&out); err != nil {
				return "", err
			}
		}
	}
	return out.String(), nil
}

// checkSweepRanges requires every point's QoS and utilization to lie in
// [0,1]. The points are memoized in env, so this computes nothing.
func checkSweepRanges(env *experiment.Env, ck *checks) {
	for _, p := range sweepPoints() {
		r, err := env.Point(p.log, p.a, p.u, "")
		if err != nil {
			ck.failf("point %s a=%.1f U=%.1f: %v", p.log, p.a, p.u, err)
			continue
		}
		if !(r.QoS >= 0 && r.QoS <= 1) || !(r.Utilization >= 0 && r.Utilization <= 1) {
			ck.failf("point %s a=%.1f U=%.1f: QoS %v or utilization %v outside [0,1]",
				p.log, p.a, p.u, r.QoS, r.Utilization)
		}
	}
}

func runSweep(o options) (result, error) {
	workers := runtime.NumCPU()
	order := rand.New(rand.NewSource(o.seed)).Perm(len(sweepFigures))
	var (
		ck     checks
		setups []time.Duration
	)
	// Warm-up sweep, untimed: its tables are the reference every later
	// sweep of this seed must reproduce byte for byte.
	se, d, err := newSweepEnv(workers)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, d)
	ref, err := runFigures(se.env, order, workers)
	if err != nil {
		return result{}, err
	}
	checkSweepRanges(se.env, &ck)
	if n := se.points.Load(); n != int64(len(sweepPoints())) {
		ck.failf("sweep computed %d points, want %d", n, len(sweepPoints()))
	}

	var (
		sweeps    []time.Duration
		attempted int
		failed    int
	)
	for begin := time.Now(); attempted == 0 || time.Since(begin) < o.window; {
		if se, d, err = newSweepEnv(workers); err != nil {
			return result{}, err
		}
		setups = append(setups, d)
		attempted++
		t0 := time.Now()
		out, err := runFigures(se.env, order, workers)
		dt := time.Since(t0)
		if err != nil {
			failed++
			logf("sweep failed: %v", err)
			continue
		}
		if out != ref {
			ck.failf("sweep %d tables differ from the first sweep", attempted)
		}
		sweeps = append(sweeps, dt)
	}
	heap := heapMB()
	runtime.KeepAlive(se)
	var total time.Duration
	for _, d := range sweeps {
		total += d
	}
	sweepMs := ms(sweeps)
	sweepS := median(append([]float64(nil), sweepMs...)) / 1000
	logf("sweep: %d sweeps, median %.3f s, setup median %.3f s, sweeps %.0f ms", len(sweeps), sweepS, median(ms(setups))/1000, sweepMs)

	res := result{Correct: ck.ok(), Attempted: attempted, Failed: failed}
	if !o.traced {
		res.Metrics = endToEnd(median(ms(setups))/1000, sweepMs,
			float64(len(sweeps)*len(sweepPoints()))/total.Seconds(), heap)
		return res, nil
	}
	layers, err := sweepLayers(order, workers, ref, sweepS, &ck)
	if err != nil {
		return result{}, err
	}
	res.Correct = ck.ok()
	res.Metrics = perLayer(layers)
	return res, nil
}

// countingProbe is the benchmark's sim.Probe: exact decision counts and
// wall time per phase, summed over every point it is attached to.
type countingProbe struct {
	decisions map[sim.DecisionKind]int
	offers    int
	events    int
	phases    map[sim.Phase]time.Duration
}

func newCountingProbe() *countingProbe {
	return &countingProbe{
		decisions: make(map[sim.DecisionKind]int),
		phases:    make(map[sim.Phase]time.Duration),
	}
}

func (p *countingProbe) Decision(d sim.Decision) {
	p.decisions[d.Kind]++
	if d.Kind == sim.DecisionQuote {
		p.offers += d.N
	}
}

func (p *countingProbe) Sample(sim.State) { p.events++ }

func (p *countingProbe) Phase(ph sim.Phase, d time.Duration) { p.phases[ph] += d }

// sweepLayers is the sweep's traced run. It times a 1-worker RunAll, then
// runs every point with sim.Run twice: bare, to time it and to check its
// report against the Env's, and with a countingProbe, for the per-phase
// split and the decision counts.
func sweepLayers(order []int, workers int, ref string, sweepS float64, ck *checks) (map[string]float64, error) {
	se, _, err := newSweepEnv(1)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	out, err := runFigures(se.env, order, 1)
	serialS := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if out != ref {
		ck.failf("1-worker sweep tables differ from the %d-worker sweep", workers)
	}
	tr, err := se.env.Trace()
	if err != nil {
		return nil, err
	}
	probe := newCountingProbe()
	var (
		runs []float64
		jobs int
	)
	for _, p := range sweepPoints() {
		log, err := se.env.Log(p.log)
		if err != nil {
			return nil, err
		}
		cfg := sim.DefaultConfig(log, tr)
		cfg.Accuracy = p.a
		cfg.UserRisk = p.u
		t0 := time.Now()
		bare, err := sim.Run(cfg)
		runs = append(runs, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			return nil, err
		}
		want, err := se.env.Point(p.log, p.a, p.u, "")
		if err != nil {
			return nil, err
		}
		if got := metrics.Compute(bare); !reflect.DeepEqual(got, want) {
			ck.failf("sim.Run %s a=%.1f U=%.1f report differs from the sweep's point", p.log, p.a, p.u)
		}
		cfg.Probe = probe
		probed, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		if got := metrics.Compute(probed); !reflect.DeepEqual(got, want) {
			ck.failf("probed sim.Run %s a=%.1f U=%.1f report differs from the bare run", p.log, p.a, p.u)
		}
		jobs += len(log.Jobs)
	}
	dec := probe.decisions
	grants := dec[sim.DecisionCheckpointGrant]
	skips := dec[sim.DecisionCheckpointSkip] + dec[sim.DecisionCheckpointDeadlineSkip]
	ph := probe.phases
	nested := ph[sim.PhaseNegotiate] + ph[sim.PhaseSchedule] + ph[sim.PhaseCheckpoint]
	l := map[string]float64{
		"experiment.points":          float64(se.points.Load()),
		"experiment.serial_s":        serialS,
		"experiment.speedup":         serialS / sweepS,
		"sim.run_ms_p50":             median(append([]float64(nil), runs...)),
		"sim.run_ms_max":             quantile(runs, 1),
		"sim.dispatch_self_s":        (ph[sim.PhaseDispatch] - nested).Seconds(),
		"sim.negotiate_s":            ph[sim.PhaseNegotiate].Seconds(),
		"sim.schedule_s":             ph[sim.PhaseSchedule].Seconds(),
		"sim.checkpoint_s":           ph[sim.PhaseCheckpoint].Seconds(),
		"sim.events":                 float64(probe.events),
		"sim.quotes":                 float64(dec[sim.DecisionQuote]),
		"sim.reserves":               float64(dec[sim.DecisionReserve]),
		"sim.backfills":              float64(dec[sim.DecisionBackfill]),
		"sim.start_slips":            float64(dec[sim.DecisionStartSlip]),
		"sim.checkpoint_grants":      float64(grants),
		"sim.checkpoint_skips":       float64(skips),
		"sim.failure_kills":          float64(dec[sim.DecisionFailureKill]),
		"sim.offers_per_job":         ratio(float64(probe.offers), float64(jobs)),
		"sim.checkpoint_grant_ratio": ratio(float64(grants), float64(grants+skips)),
	}
	return l, nil
}

// ratio is num/den, or 0 when den is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
