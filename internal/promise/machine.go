// Package promise is the paper's control system as one deterministic state
// machine: a sim.Engine that quotes and admits, the ledger of the promises
// it has made, and the job-ID counter. Every caller that keeps promises —
// qosd live and on WAL replay, the scenario runner, the public probqos
// System — drives the same Machine, so the three cannot drift apart.
package promise

import (
	"fmt"

	"probqos/internal/negotiate"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// engine names sim.Engine so Machine can embed it under an unexported
// field: the engine's read methods (Now, Quotes, Job, JobIDs, Stats, ...)
// and InjectFailure, which touches neither ledger nor counter, are
// promoted; its other mutators are shadowed by Machine's own, which keep
// the ledger and the counter in step.
type engine = sim.Engine

// Machine owns an engine, its promise ledger and the job-ID counter, and is
// the only way to mutate them. Like the engine, it is not safe for
// concurrent use.
type Machine struct {
	*engine
	ledger    *Ledger
	lastJobID int
}

// New builds a machine over a fresh engine for cfg, with an empty ledger.
func New(cfg sim.Config) (*Machine, error) {
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{engine: eng, ledger: newLedger(DefaultBins)}, nil
}

// Ledger returns the promise ledger for reading.
func (m *Machine) Ledger() *Ledger { return m.ledger }

// NextJobID returns the ID the next admitted job should carry: one past
// every ID admitted or burned so far.
func (m *Machine) NextJobID() int { return m.lastJobID + 1 }

// AdvanceTo moves the engine clock to t and settles every promise the
// advance drove to a terminal state.
func (m *Machine) AdvanceTo(t units.Time) error {
	if err := m.engine.AdvanceTo(t); err != nil {
		return err
	}
	m.settle()
	return nil
}

// Drain runs the engine until no event is pending and settles the
// promises that reached a terminal state.
func (m *Machine) Drain() error {
	if err := m.engine.Drain(); err != nil {
		return err
	}
	m.settle()
	return nil
}

// settle asks the engine for the disposition of every open promise.
// JobCompleted is a kept promise; JobMissed — sticky from the instant the
// deadline passes unmet — is a broken one. A job the engine does not know
// reads as the zero JobStatus, whose state is not terminal.
func (m *Machine) settle() {
	m.ledger.settle(m.Now(), func(jobID int) (kept, terminal bool) {
		st, _ := m.Job(jobID)
		return st.State == sim.JobCompleted, st.State.Terminal()
	})
}

// Admit burns job.ID, admits the job on quote q (offers is the quote's
// 1-based rank in the dialog), and files the promise under sessionID
// (empty when there is none). The ID is burned even when the engine
// rejects the admit, so NextJobID never reissues it.
func (m *Machine) Admit(job workload.Job, q negotiate.Quote, offers int, sessionID string) error {
	if job.ID > m.lastJobID {
		m.lastJobID = job.ID
	}
	if err := m.engine.Admit(job, q, offers); err != nil {
		return err
	}
	m.ledger.admit(job.ID, sessionID, q.Success, q.Deadline, m.Now())
	return nil
}

// State is a machine's persistent form: the engine's operation journal,
// the ledger, and the highest job ID burned.
type State struct {
	Engine    sim.EngineState
	Ledger    LedgerState
	LastJobID int
}

// Export snapshots the machine.
func (m *Machine) Export() State {
	return State{
		Engine:    m.ExportState(),
		Ledger:    m.ledger.Export(),
		LastJobID: m.lastJobID,
	}
}

// Restore rebuilds an exported state on a fresh machine built from the
// exporter's configuration.
func (m *Machine) Restore(st State) error {
	if err := m.engine.Restore(st.Engine); err != nil {
		return fmt.Errorf("promise: restore engine: %w", err)
	}
	if err := m.ledger.restore(st.Ledger); err != nil {
		return fmt.Errorf("promise: restore ledger: %w", err)
	}
	m.lastJobID = st.LastJobID
	return nil
}
