package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"probqos/internal/failure"
	"probqos/internal/service"
	"probqos/internal/trace"
	"probqos/internal/workload"
)

// The qosd-deep workload: qosd with its write-ahead log on and a manual
// clock that never moves, so every promise stays reserved and each quote
// walks past the whole backlog. Set-up prefills deepPrefill promises
// through the API; the timed window then negotiates deepPerSecond promises
// per --seconds. A fixed amount of work, rather than a fixed time, keeps the
// backlog range a run measures the same on a fast or a slow run.
const (
	deepPrefill   = 2000
	deepPerSecond = 200
	// qosdSetups is how many times a run sets qosd up; setup_s is their
	// median and the last instance is measured.
	qosdSetups = 3
	// inputJobs is the length of the generated job-shape stream; the client
	// cycles through it.
	inputJobs = 20000
	// spanBudget sizes the tracer for every span of a traced run, so none
	// is overwritten.
	spanBudget = 1 << 23
)

// userRisks are the user strategies U the client draws from.
var userRisks = []float64{0.1, 0.5, 0.9}

// qosdInputs is the seeded request stream: SDSC job shapes and each user's
// U, taken in turn through next.
type qosdInputs struct {
	jobs []quoteReq
	us   []float64
	next int
}

func newQosdInputs(seed int64) *qosdInputs {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: inputJobs, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	in := &qosdInputs{}
	for _, j := range log.Jobs {
		in.jobs = append(in.jobs, quoteReq{Nodes: j.Nodes, ExecSeconds: int64(j.Exec)})
		in.us = append(in.us, userRisks[rng.Intn(len(userRisks))])
	}
	return in
}

// take returns the next request's shape and U.
func (in *qosdInputs) take() (quoteReq, float64) {
	i := in.next % len(in.jobs)
	in.next++
	return in.jobs[i], in.us[i]
}

// qosdInstance is one running qosd plus the promises its client holds.
type qosdInstance struct {
	cfg  service.Config
	svc  *service.Service
	base string
	held []acceptResp
}

// setupQosd generates the failure trace, starts qosd on loopback with a
// fresh data dir and prefills it through the API. It returns the instance
// and the set-up time.
func setupQosd(seed int64, in *qosdInputs, tracer *trace.Tracer) (*qosdInstance, time.Duration, error) {
	begin := time.Now()
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: seed}, failure.FilterConfig{})
	if err != nil {
		return nil, 0, err
	}
	cfg := service.DefaultConfig(tr)
	cfg.Tracer = tracer
	// The temporary directory follows TMPDIR, which run.sh points into the
	// checkout's build directory.
	if cfg.DataDir, err = os.MkdirTemp("", "qosbench-wal-"); err != nil {
		return nil, 0, err
	}
	svc, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(cfg.DataDir)
		return nil, 0, err
	}
	inst := &qosdInstance{cfg: cfg, svc: svc}
	addr, err := svc.Start("127.0.0.1:0")
	if err != nil {
		inst.close()
		return nil, 0, err
	}
	inst.base = "http://" + addr
	t, _ := inst.run(in, deepPrefill)
	if t.failed > 0 {
		inst.close()
		return nil, 0, fmt.Errorf("prefill: %d promises failed", t.failed)
	}
	return inst, time.Since(begin), nil
}

// run negotiates n promises with one closed-loop client and returns its
// tally and the wall time it took.
func (inst *qosdInstance) run(in *qosdInputs, n int) (tally, time.Duration) {
	c := newClient(inst.base)
	defer c.close()
	var t tally
	begin := time.Now()
	for i := 0; i < n; i++ {
		q, u := in.take()
		c.promise(&t, q, u)
	}
	wall := time.Since(begin)
	inst.held = append(inst.held, t.held...)
	return t, wall
}

// close stops qosd and removes its data dir.
func (inst *qosdInstance) close() {
	inst.svc.Close()
	os.RemoveAll(inst.cfg.DataDir)
}

// measured is one timed window with the state around it.
type measured struct {
	t          tally
	wall       time.Duration
	start, end stateResp
}

// measure runs the timed window between two /v1/state reads and applies
// the output and depth checks.
func (inst *qosdInstance) measure(in *qosdInputs, window time.Duration, ck *checks) (measured, error) {
	c := newClient(inst.base)
	defer c.close()
	start, _, err := c.state()
	if err != nil {
		return measured{}, err
	}
	t, wall := inst.run(in, deepPerSecond*int(window/time.Second))
	end, _, err := c.state()
	if err != nil {
		return measured{}, err
	}
	for _, h := range inst.held {
		if !(h.Promised >= 0 && h.Promised <= 1) || h.Deadline < h.Start {
			ck.failf("job %d: promise p=%v start=%d deadline=%d", h.JobID, h.Promised, h.Start, h.Deadline)
		}
	}
	if end.Jobs != len(inst.held) {
		ck.failf("qosd holds %d jobs, the client holds %d promises", end.Jobs, len(inst.held))
	}
	// The clock never moves, so nothing admitted may leave the backlog.
	if start.depth() < deepPrefill || end.depth() != start.depth()+len(t.held) {
		ck.failf("backlog went from %d to %d over %d promises; want at least %d, growing by one per promise",
			start.depth(), end.depth(), len(t.held), deepPrefill)
	}
	logf("qosd-deep: %d promises in %.2f s, depth %d -> %d, %d failed, %d conflicts",
		len(t.promises), wall.Seconds(), start.depth(), end.depth(), t.failed, t.conflicts)
	return measured{t: t, wall: wall, start: start, end: end}, nil
}

// checkRecovery closes qosd, reopens its data dir and requires the
// recovered /v1/state to equal the live one.
func (inst *qosdInstance) checkRecovery(ck *checks) error {
	c := newClient(inst.base)
	_, live, err := c.state()
	c.close()
	if err != nil {
		return err
	}
	inst.svc.Close()
	cfg := inst.cfg
	cfg.Tracer = nil
	svc, err := service.New(cfg)
	if err != nil {
		return fmt.Errorf("reopen data dir: %w", err)
	}
	inst.svc = svc
	addr, err := svc.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	c = newClient("http://" + addr)
	_, recovered, err := c.state()
	c.close()
	if err != nil {
		return err
	}
	if !bytes.Equal(live, recovered) {
		ck.failf("recovered state %s differs from live state %s", recovered, live)
	}
	return nil
}

func runQosd(o options) (result, error) {
	in := newQosdInputs(o.seed)
	var (
		ck     checks
		setups []time.Duration
		inst   *qosdInstance
	)
	for i := 0; i < qosdSetups; i++ {
		if inst != nil {
			inst.close()
		}
		in.next = 0
		var (
			d   time.Duration
			err error
		)
		if inst, d, err = setupQosd(o.seed, in, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, d)
	}
	defer func() { inst.close() }()
	logf("qosd-deep: setup median %.3f s", median(ms(setups))/1000)

	m, err := inst.measure(in, o.window, &ck)
	if err != nil {
		return result{}, err
	}
	heap := heapMB()
	if err := inst.checkRecovery(&ck); err != nil {
		return result{}, err
	}
	res := result{Correct: ck.ok(), Attempted: m.t.attempted, Failed: m.t.failed}
	if !o.traced {
		res.Metrics = endToEnd(median(ms(setups))/1000, ms(m.t.promises),
			float64(len(m.t.promises))/m.wall.Seconds(), heap)
		return res, nil
	}

	// The traced run: a fresh instance with a tracer sized for the whole
	// run, measured the same way.
	inst.close()
	in.next = 0
	tracer := trace.New(spanBudget)
	if inst, _, err = setupQosd(o.seed, in, tracer); err != nil {
		return result{}, err
	}
	windowStart := time.Now()
	tm, err := inst.measure(in, o.window, &ck)
	if err != nil {
		return result{}, err
	}
	if n := tracer.Dropped(); n > 0 {
		ck.failf("tracer dropped %d spans; per-layer sums would undercount", n)
	}
	layers := qosdLayers(m, tm, tracer.Snapshot(), windowStart)
	res.Correct = ck.ok()
	res.Attempted += tm.t.attempted
	res.Failed += tm.t.failed
	res.Metrics = perLayer(layers)
	return res, nil
}
