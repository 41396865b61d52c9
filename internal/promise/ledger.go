package promise

import (
	"fmt"

	"probqos/internal/stats"
	"probqos/internal/units"
)

// The promise ledger: the runtime answer to "does the system keep the
// promises it quotes?". Every successful admit files the quoted success
// probability and deadline; every clock advance settles the promises the
// engine has driven to a terminal state. From the settled rows the ledger
// maintains streaming conformance statistics — promise-keeping rate,
// Brier score, and reliability-diagram buckets on the same stats.BinIndex
// rule as the offline metrics.Calibration diagram — exposed on qosd's
// /metrics and /qos/conformance and in scenario reports.
//
// The ledger lives entirely on the virtual clock: it is deterministic
// state, mutated only by its Machine and carried through WAL replay,
// snapshots and scenario export/resume, so that a recovered run reports
// exactly the conformance record it would have had without the
// interruption.

// Outcome is the terminal disposition of one promise.
type Outcome string

// Promise outcomes. A promise is pending until its job completes on time
// (kept) or its deadline passes unmet (broken).
const (
	OutcomePending Outcome = "pending"
	OutcomeKept    Outcome = "kept"
	OutcomeBroken  Outcome = "broken"
)

// Promise is one ledger row: a quoted probability bound to a deadline and,
// eventually, an outcome. Times are virtual.
type Promise struct {
	JobID      int        `json:"job_id"`
	SessionID  string     `json:"session_id,omitempty"`
	Promised   float64    `json:"promised"`
	Deadline   units.Time `json:"deadline"`
	AdmittedAt units.Time `json:"admitted_at"`
	Outcome    Outcome    `json:"outcome"`
	SettledAt  units.Time `json:"settled_at,omitempty"`
}

// ConformanceBin is one reliability-diagram bucket of settled promises.
type ConformanceBin struct {
	// Lo and Hi bound the promised-probability bin [Lo, Hi).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Settled is the number of settled promises in the bin.
	Settled int `json:"settled"`
	// PromisedMean is the mean quoted probability of those promises.
	PromisedMean float64 `json:"promised_mean"`
	// Observed is the fraction of those promises that were kept. Honesty
	// is Observed >= PromisedMean in every populated bin.
	Observed float64 `json:"observed"`
}

// ConformanceStats is the ledger's streaming summary.
type ConformanceStats struct {
	Promises int `json:"promises"`
	Open     int `json:"open"`
	Settled  int `json:"settled"`
	Kept     int `json:"kept"`
	Broken   int `json:"broken"`
	// KeepingRate is kept/settled (0 before the first settlement).
	KeepingRate float64 `json:"keeping_rate"`
	// Brier is the mean squared error of the quoted probabilities against
	// the 0/1 outcomes: lower is better-calibrated, 0.25 is coin-flip bad.
	Brier float64          `json:"brier_score"`
	Bins  []ConformanceBin `json:"bins"`
}

// Ledger tracks promises from admission to settlement. Other packages only
// read it; its Machine files and settles the rows. It is not safe for
// concurrent use.
type Ledger struct {
	bins    int
	entries []Promise
	index   map[int]int // job ID -> entries index
	open    []int       // entries indices of pending promises, admit order

	kept, broken int
	brierSum     float64
	binSettled   []int
	binKept      []int
	binPromised  []float64

	// version increments on every admit or settlement, so callers can
	// cheaply skip republishing unchanged stats.
	version uint64
}

// DefaultBins matches the offline calibration diagram's usual resolution.
const DefaultBins = 10

// newLedger returns an empty ledger with the given (positive) number of
// reliability-diagram bins.
func newLedger(bins int) *Ledger {
	return &Ledger{
		bins:        bins,
		index:       make(map[int]int),
		binSettled:  make([]int, bins),
		binKept:     make([]int, bins),
		binPromised: make([]float64, bins),
	}
}

// Version increments on every state change; equal versions mean equal
// stats.
func (l *Ledger) Version() uint64 { return l.version }

// admit files a new promise. Re-admitting a job ID is ignored: the engine
// rejects duplicate admits, so a second call is a replay artifact, not a
// new promise.
func (l *Ledger) admit(jobID int, sessionID string, promised float64, deadline, now units.Time) {
	if _, dup := l.index[jobID]; dup {
		return
	}
	l.index[jobID] = len(l.entries)
	l.entries = append(l.entries, Promise{
		JobID:      jobID,
		SessionID:  sessionID,
		Promised:   promised,
		Deadline:   deadline,
		AdmittedAt: now,
		Outcome:    OutcomePending,
	})
	l.open = append(l.open, len(l.entries)-1)
	l.version++
}

// settle scans the open promises in admit order and asks judge for each
// job's disposition; terminal ones are settled at the given virtual
// instant. The judge runs against the engine, which already knows every
// outcome — the ledger only records them.
func (l *Ledger) settle(now units.Time, judge func(jobID int) (kept, terminal bool)) {
	still := l.open[:0]
	for _, idx := range l.open {
		kept, terminal := judge(l.entries[idx].JobID)
		if !terminal {
			still = append(still, idx)
			continue
		}
		l.settleEntry(idx, kept, now)
	}
	l.open = still
}

// settleEntry finalizes one pending entry and folds it into the streaming
// statistics.
func (l *Ledger) settleEntry(idx int, kept bool, now units.Time) {
	e := &l.entries[idx]
	e.SettledAt = now
	e.Outcome = OutcomeBroken
	outcome := 0.0
	if kept {
		e.Outcome = OutcomeKept
		outcome = 1.0
	}
	diff := e.Promised - outcome
	l.brierSum += diff * diff
	l.tally(e.Promised, kept)
	l.version++
}

// tally counts one settled promise by outcome and reliability bin.
func (l *Ledger) tally(promised float64, kept bool) {
	b := stats.BinIndex(promised, l.bins)
	l.binSettled[b]++
	l.binPromised[b] += promised
	if kept {
		l.kept++
		l.binKept[b]++
	} else {
		l.broken++
	}
}

// Stats summarizes the ledger.
func (l *Ledger) Stats() ConformanceStats {
	settled := l.kept + l.broken
	st := ConformanceStats{
		Promises: len(l.entries),
		Open:     len(l.open),
		Settled:  settled,
		Kept:     l.kept,
		Broken:   l.broken,
		Bins:     make([]ConformanceBin, l.bins),
	}
	if settled > 0 {
		st.KeepingRate = float64(l.kept) / float64(settled)
		st.Brier = l.brierSum / float64(settled)
	}
	for i := range st.Bins {
		b := &st.Bins[i]
		b.Lo = float64(i) / float64(l.bins)
		b.Hi = float64(i+1) / float64(l.bins)
		b.Settled = l.binSettled[i]
		if n := l.binSettled[i]; n > 0 {
			b.PromisedMean = l.binPromised[i] / float64(n)
			b.Observed = float64(l.binKept[i]) / float64(n)
		}
	}
	return st
}

// Entries returns a copy of the most recent tail promises in admit order
// (tail <= 0 means all).
func (l *Ledger) Entries(tail int) []Promise {
	n := len(l.entries)
	if tail > 0 && tail < n {
		n = tail
	}
	out := make([]Promise, n)
	copy(out, l.entries[len(l.entries)-n:])
	return out
}

// Lookup returns the ledger row for one job.
func (l *Ledger) Lookup(jobID int) (Promise, bool) {
	idx, ok := l.index[jobID]
	if !ok {
		return Promise{}, false
	}
	return l.entries[idx], true
}

// LedgerState is the ledger's persistent form, carried inside qosd
// snapshots and scenario states. BrierSum is carried verbatim rather than recomputed because
// the live sum accumulates in settlement order, which the rows alone do
// not fully determine; every other statistic is rebuilt from the rows so
// the state cannot go internally inconsistent.
type LedgerState struct {
	Bins     int       `json:"bins"`
	BrierSum float64   `json:"brier_sum"`
	Promises []Promise `json:"promises"`
}

// Export snapshots the ledger.
func (l *Ledger) Export() LedgerState {
	return LedgerState{
		Bins:     l.bins,
		BrierSum: l.brierSum,
		Promises: append([]Promise(nil), l.entries...),
	}
}

// restore replaces the ledger's contents with an exported state.
func (l *Ledger) restore(st LedgerState) error {
	bins := st.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	fresh := newLedger(bins)
	for i, p := range st.Promises {
		if _, dup := fresh.index[p.JobID]; dup {
			return fmt.Errorf("promise: ledger state repeats job %d", p.JobID)
		}
		fresh.index[p.JobID] = i
		fresh.entries = append(fresh.entries, p)
		switch p.Outcome {
		case OutcomePending:
			fresh.open = append(fresh.open, i)
		case OutcomeKept, OutcomeBroken:
			fresh.tally(p.Promised, p.Outcome == OutcomeKept)
		default:
			return fmt.Errorf("promise: ledger state job %d has unknown outcome %q", p.JobID, p.Outcome)
		}
	}
	fresh.brierSum = st.BrierSum
	fresh.version = l.version + 1
	*l = *fresh
	return nil
}
