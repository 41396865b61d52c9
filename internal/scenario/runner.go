package scenario

import (
	"fmt"

	"probqos/internal/checkpoint"
	"probqos/internal/negotiate"
	"probqos/internal/promise"
	"probqos/internal/sim"
	"probqos/internal/stats"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// maxQuoteOffers bounds the §3.5 dialog per submission: the runner walks at
// most this many successive offers looking for one whose promise clears the
// user's risk threshold before giving up (a rejected submission).
const maxQuoteOffers = 64

// policyFor maps a scenario policy name to the checkpoint policy it selects.
func policyFor(name string) (checkpoint.Policy, error) {
	switch name {
	case "risk":
		return checkpoint.RiskBased{}, nil
	case "periodic":
		return checkpoint.Periodic{}, nil
	case "never":
		return checkpoint.Never{}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (one of risk, periodic, never)", name)
}

// Runner executes one scenario on a promise.Machine, step by step. A step
// is one timeline event; a final implicit step drains the engine and
// settles the last promises. The machine's operation journal makes
// Export/Resume mid-scenario reproduce the exact final report.
type Runner struct {
	scn *Scenario
	m   *promise.Machine

	step      int // next timeline step; len(scn.Events)+1 total (final drain)
	submitted int
	rejected  int
	injected  int
}

// NewRunner validates the scenario, generates its background failure trace,
// and assembles the machine.
func NewRunner(s *Scenario) (*Runner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := buildMachine(s)
	if err != nil {
		return nil, err
	}
	return &Runner{scn: s, m: m}, nil
}

// buildMachine constructs the fresh machine a scenario defines; NewRunner
// and Resume share it so a resumed run restores onto an engine identical
// to the original.
func buildMachine(s *Scenario) (*promise.Machine, error) {
	bg, err := backgroundTrace(s)
	if err != nil {
		return nil, err
	}
	policy, err := policyFor(s.Fleet.Policy)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(nil, bg)
	cfg.Nodes = s.Fleet.Nodes
	cfg.Accuracy = s.Fleet.Accuracy
	cfg.UserRisk = s.Fleet.UserRisk
	cfg.Checkpoint = s.Fleet.Checkpoint
	cfg.Downtime = s.Fleet.Downtime
	cfg.Policy = policy
	cfg.FaultAware = s.Fleet.FaultAware
	cfg.DeadlineSkip = s.Fleet.DeadlineSkip
	cfg.BaseRateFloor = s.Fleet.BaseRateFloor
	m, err := promise.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return m, nil
}

// Scenario returns the scenario the runner executes.
func (r *Runner) Scenario() *Scenario { return r.scn }

// Done reports whether every step (including the final drain) has run.
func (r *Runner) Done() bool { return r.step > len(r.scn.Events) }

// Step applies the next timeline event (or, past the last event, the final
// drain-and-settle). It returns an error only for engine-level failures; a
// scenario that admits nothing is a valid — if dull — run.
func (r *Runner) Step() error {
	if r.Done() {
		return fmt.Errorf("scenario %s: already finished", r.scn.Name)
	}
	i := r.step
	r.step++
	if i == len(r.scn.Events) {
		if err := r.m.Drain(); err != nil {
			return fmt.Errorf("scenario %s: drain: %w", r.scn.Name, err)
		}
		return nil
	}
	ev := r.scn.Events[i]
	// Events are ordered, but a resumed engine may already sit past the
	// event instant (Restore replays to the journal clock); never rewind.
	at := ev.At.Max(r.m.Now())
	if err := r.m.AdvanceTo(at); err != nil {
		return fmt.Errorf("scenario %s: events[%d]: %w", r.scn.Name, i, err)
	}
	switch ev.Action {
	case ActionArrivalBurst:
		if err := r.burst(i, ev); err != nil {
			return err
		}
	case ActionInjectFail:
		for k, node := range ev.Inject.Nodes {
			failAt := at.Add(ev.Inject.Stagger * units.Duration(k))
			if err := r.m.InjectFailure(node, failAt); err != nil {
				return fmt.Errorf("scenario %s: events[%d]: %w", r.scn.Name, i, err)
			}
			r.injected++
		}
	case ActionMaintenance:
		// The cluster keeps the longest outage per node, so re-failing the
		// node every downtime keeps it contiguously dark for the window.
		m := ev.Maintenance
		for _, node := range m.Nodes {
			for off := units.Duration(0); off < m.Duration; off += r.scn.Fleet.Downtime {
				if err := r.m.InjectFailure(node, at.Add(off)); err != nil {
					return fmt.Errorf("scenario %s: events[%d]: %w", r.scn.Name, i, err)
				}
				r.injected++
			}
		}
	case ActionMTBFShift:
		// Already folded into the background trace at generation time;
		// nothing to do at runtime.
	case ActionDrain:
		if err := r.m.Drain(); err != nil {
			return fmt.Errorf("scenario %s: events[%d]: drain: %w", r.scn.Name, i, err)
		}
	}
	return nil
}

// burst runs one arrival_burst: Jobs submissions spread evenly over the
// spread window, each quoting and admitting the first offer whose promised
// success clears the user risk. Job shapes come from a per-event stream
// derived statelessly from (seed, event index), so a resumed run re-derives
// the same jobs without replaying earlier bursts.
func (r *Runner) burst(i int, ev Event) error {
	b := ev.Burst
	rng := stats.NewSource(r.scn.Seed).Split(fmt.Sprintf("event-%d", i))
	u := b.UserRisk
	if u < 0 {
		u = r.scn.Fleet.UserRisk
	}
	user := negotiate.User{U: u}
	for k := 0; k < b.Jobs; k++ {
		nodes := b.MinNodes + rng.Intn(b.MaxNodes-b.MinNodes+1)
		exec := b.MinExec + units.Duration(rng.Int63n(int64(b.MaxExec-b.MinExec)+1))
		var arriveAt units.Time
		if b.Jobs > 1 {
			arriveAt = ev.At.Add(b.Spread * units.Duration(k) / units.Duration(b.Jobs-1))
		} else {
			arriveAt = ev.At
		}
		if err := r.m.AdvanceTo(arriveAt.Max(r.m.Now())); err != nil {
			return fmt.Errorf("scenario %s: events[%d] job %d: %w", r.scn.Name, i, k, err)
		}
		r.submitted++
		quotes := r.m.Quotes(nodes, exec, maxQuoteOffers)
		admitted := false
		for rank, q := range quotes {
			if !user.Accepts(q.Success) {
				continue
			}
			job := workload.Job{ID: r.m.NextJobID(), Arrival: r.m.Now(), Nodes: nodes, Exec: exec}
			if err := r.m.Admit(job, q, rank+1, ""); err != nil {
				return fmt.Errorf("scenario %s: events[%d] job %d: %w", r.scn.Name, i, k, err)
			}
			admitted = true
			break
		}
		if !admitted {
			r.rejected++
		}
	}
	return nil
}

// Run executes every remaining step and returns the final report.
func (r *Runner) Run() (*Report, error) {
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Report(), nil
}

// State is a mid-scenario snapshot: the scenario itself plus the machine's
// state (engine operation journal, ledger, job-ID counter) and the runner's
// counters. Resume on a
// fresh process reconstructs a runner that finishes with the exact report
// the uninterrupted run would have produced.
type State struct {
	Scenario  *Scenario           `json:"scenario"`
	Step      int                 `json:"step"`
	NextJobID int                 `json:"next_job_id"`
	Submitted int                 `json:"submitted"`
	Rejected  int                 `json:"rejected"`
	Injected  int                 `json:"injected"`
	Engine    sim.EngineState     `json:"engine"`
	Ledger    promise.LedgerState `json:"ledger"`
}

// Export snapshots the runner between steps.
func (r *Runner) Export() State {
	st := r.m.Export()
	return State{
		Scenario:  r.scn,
		Step:      r.step,
		NextJobID: st.LastJobID + 1,
		Submitted: r.submitted,
		Rejected:  r.rejected,
		Injected:  r.injected,
		Engine:    st.Engine,
		Ledger:    st.Ledger,
	}
}

// Resume reconstructs a runner from an exported State: a fresh machine
// built from the scenario (identical config and background trace) with the
// exported machine state restored onto it.
func Resume(st State) (*Runner, error) {
	if st.Scenario == nil {
		return nil, fmt.Errorf("scenario: resume state has no scenario")
	}
	if err := st.Scenario.Validate(); err != nil {
		return nil, err
	}
	m, err := buildMachine(st.Scenario)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(promise.State{
		Engine:    st.Engine,
		Ledger:    st.Ledger,
		LastJobID: st.NextJobID - 1,
	}); err != nil {
		return nil, fmt.Errorf("scenario %s: resume: %w", st.Scenario.Name, err)
	}
	return &Runner{
		scn:       st.Scenario,
		m:         m,
		step:      st.Step,
		submitted: st.Submitted,
		rejected:  st.Rejected,
		injected:  st.Injected,
	}, nil
}
