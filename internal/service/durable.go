package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"probqos/internal/durability"
	"probqos/internal/negotiate"
	"probqos/internal/obs"
	"probqos/internal/promise"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// Crash safety for qosd. Every state-mutating operation — clock advances,
// session opens and takes, admits, fault injections — is journaled to a
// write-ahead log (internal/durability) before it is applied, so that on
// restart the service reconstructs its exact state: snapshot restore plus
// record-by-record replay through the same apply code the live request
// path uses. A WAL write failure flips the service into degraded mode:
// reads and quotes keep working, mutations answer 503, and each request
// probes whether the log has healed.
//
// Two deliberate relaxations, both promise-safe:
//
//   - Session records are journaled just after Book.Open rather than
//     before. Losing one in a crash costs a client a 404 on accept —
//     "renegotiate", which the protocol already demands after any expiry
//     — never a broken promise. Admits, which do create promises, are
//     journaled strictly before they are applied.
//   - Replay tolerates admit and fault rejections: they are deterministic
//     (the live request saw the identical error and answered 409/400), so
//     the record is a faithful re-enactment, not corruption.

// errDegraded is returned for mutations while the write-ahead log is
// unavailable. Reads and quotes still work; admits must wait.
var errDegraded = errors.New("service: degraded, write-ahead log unavailable; retry later")

// WAL operation kinds.
const (
	opAdvance = "advance"
	opSession = "session"
	opTake    = "take"
	opAdmit   = "admit"
	opFault   = "fault"
	opDrain   = "drain"
)

// walOp is one journaled state mutation, JSON-encoded as a WAL record
// payload.
type walOp struct {
	Kind string `json:"kind"`
	// advance
	To units.Time `json:"to,omitempty"`
	// session (the full session, so replay reproduces it verbatim)
	Session *negotiate.Session `json:"session,omitempty"`
	// take and admit
	SessionID string `json:"session_id,omitempty"`
	// admit (self-contained: replay needs no session record to exist,
	// which keeps admits of degraded-mode memory-only sessions replayable)
	Job    *workload.Job    `json:"job,omitempty"`
	Quote  *negotiate.Quote `json:"quote,omitempty"`
	Offers int              `json:"offers,omitempty"`
	// fault (node 0 is valid, so no omitempty)
	Node int        `json:"node"`
	At   units.Time `json:"at,omitempty"`
}

// machine is the replayable core of qosd: the promise machine (engine,
// promise ledger, job-ID counter) and the session book. Live requests and
// WAL replay mutate it through the same apply helpers, so recovery is the
// normal code path re-run, not a parallel implementation that can drift —
// including the conformance record, which a crash must not be able to
// launder.
type machine struct {
	eng  *promise.Machine
	book *negotiate.Book
}

func newMachine(cfg Config) (machine, error) {
	eng, err := promise.New(sim.Config{
		Failures:      cfg.Failures,
		Nodes:         cfg.Nodes,
		Accuracy:      cfg.Accuracy,
		Checkpoint:    cfg.Checkpoint,
		Downtime:      cfg.Downtime,
		Policy:        cfg.Policy,
		DeadlineSkip:  cfg.DeadlineSkip,
		FaultAware:    cfg.FaultAware,
		BaseRateFloor: cfg.BaseRateFloor,
	})
	if err != nil {
		return machine{}, err
	}
	book, err := negotiate.NewBook(cfg.SessionTTL)
	if err != nil {
		return machine{}, err
	}
	return machine{eng: eng, book: book}, nil
}

// applyAdvance moves the clock, settling every promise the advance drove
// to a terminal state, and sweeps lapsed sessions: the transition behind
// both /v1/advance and the speedup clock. Settlement happens on the
// journaled clock, inside the replayed path, so a recovered ledger is
// identical to the one the crash interrupted.
func (m *machine) applyAdvance(to units.Time) error {
	if err := m.eng.AdvanceTo(to); err != nil {
		return err
	}
	m.book.Sweep(m.eng.Now())
	return nil
}

// applyAdmit consumes the session (if any still exists) and admits. The
// job ID is burned even when admission then fails — live and on replay
// alike — so the counter never reissues an ID.
func (m *machine) applyAdmit(op walOp) error {
	if op.SessionID != "" {
		m.book.Take(op.SessionID, m.eng.Now())
	}
	return m.eng.Admit(*op.Job, *op.Quote, op.Offers, op.SessionID)
}

// apply replays one journaled operation. Admit and fault rejections are
// deterministic re-enactments of what the live request saw, so they are
// benign; an advance failure is an engine invariant violation and fatal.
func (m *machine) apply(op walOp) error {
	switch op.Kind {
	case opAdvance:
		return m.applyAdvance(op.To)
	case opSession:
		if op.Session == nil {
			return fmt.Errorf("service: session record without a session")
		}
		m.book.Insert(op.Session)
	case opTake:
		m.book.Take(op.SessionID, m.eng.Now())
	case opAdmit:
		if op.Job == nil || op.Quote == nil {
			return fmt.Errorf("service: admit record without job or quote")
		}
		m.applyAdmit(op)
	case opFault:
		m.eng.InjectFailure(op.Node, op.At)
	case opDrain:
		// Clean-shutdown marker; state unchanged.
	default:
		return fmt.Errorf("service: unknown wal op kind %q", op.Kind)
	}
	return nil
}

// persistedState is what a snapshot's State field holds.
type persistedState struct {
	Engine sim.EngineState     `json:"engine"`
	Book   negotiate.BookState `json:"book"`
	// NextJobID is the highest job ID issued so far.
	NextJobID int `json:"next_job_id"`
	// Ledger carries the promise-conformance record. A pointer so
	// snapshots written before the ledger existed still decode (they
	// restore an empty ledger).
	Ledger *promise.LedgerState `json:"ledger,omitempty"`
	// Clean marks a shutdown snapshot: the WAL was drained and truncated
	// before exit, so a boot that finds it with an empty log was preceded
	// by a graceful stop, not a crash.
	Clean bool `json:"clean"`
}

func (m *machine) export(clean bool) ([]byte, error) {
	st := m.eng.Export()
	return json.Marshal(persistedState{
		Engine:    st.Engine,
		Book:      m.book.Export(),
		NextJobID: st.LastJobID,
		Ledger:    &st.Ledger,
		Clean:     clean,
	})
}

// RecoveryInfo summarizes what startup found in the data directory.
type RecoveryInfo struct {
	// Enabled is false when the service runs without a data dir.
	Enabled bool `json:"enabled"`
	// SnapshotLoaded reports whether a snapshot was restored.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// RecordsReplayed counts WAL records applied on top of the snapshot.
	RecordsReplayed int `json:"records_replayed"`
	// Clean reports a graceful prior shutdown (shutdown snapshot present,
	// nothing to replay).
	Clean bool `json:"clean"`
}

// RecoveryInfo reports what this instance recovered at startup. Fixed
// before the state machine starts, so safe to read from any goroutine.
func (s *Service) RecoveryInfo() RecoveryInfo { return s.info }

// configDigest fingerprints every configuration input that determines
// replay: the cluster, the failure trace, and the policies. Recovery
// refuses a data dir written under a different fingerprint, since
// replaying its journal here would silently diverge.
func configDigest(cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|nodes=%d|a=%g|ckpt=%d/%d|down=%d|policy=%s|skip=%t|fa=%t|floor=%t|ttl=%d|",
		cfg.Nodes, cfg.Accuracy, cfg.Checkpoint.Interval, cfg.Checkpoint.Overhead,
		cfg.Downtime, cfg.Policy.Name(), cfg.DeadlineSkip, cfg.FaultAware,
		cfg.BaseRateFloor, cfg.SessionTTL)
	fmt.Fprintf(h, "trace=%d:%d|", cfg.Failures.Nodes(), cfg.Failures.Len())
	for _, ev := range cfg.Failures.Events() {
		fmt.Fprintf(h, "%d,%d,%g;", ev.Time, ev.Node, ev.Detectability)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// fsyncBounds bucket WAL append latency from 50µs to ~0.8s.
var fsyncBounds = []float64{0.00005, 0.0002, 0.0008, 0.0032, 0.0128, 0.0512, 0.2048, 0.8192}

// snapshotBounds bucket snapshot write latency from 1ms to ~4s.
var snapshotBounds = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096}

// recoverState opens the data dir, restores the snapshot, replays the WAL
// through the machine, and leaves the store ready for appends. Called from
// New before the state machine starts, so it owns all state unlocked.
func (s *Service) recoverState() error {
	store, snap, recs, err := durability.Open(s.cfg.FS, s.cfg.DataDir, durability.Options{
		SnapshotEvery: s.cfg.SnapshotEvery,
		Hazard:        s.cfg.CrashHazard,
		OnSync: func(d time.Duration) {
			s.reg.Histogram("qosd_wal_fsync_seconds",
				"WAL append latency (write + fsync)", fsyncBounds, nil).Observe(d.Seconds())
		},
		OnSnapshot: func(bytes int, d time.Duration) {
			s.reg.Gauge("qosd_snapshot_last_bytes",
				"encoded state size of the most recent snapshot", nil).Set(float64(bytes))
			s.reg.Histogram("qosd_snapshot_seconds",
				"durable snapshot write latency", snapshotBounds, nil).Observe(d.Seconds())
		},
	})
	if err != nil {
		return err
	}
	clean := false
	begin := time.Now()
	if snap != nil {
		if snap.Config != s.digest {
			store.Close()
			return fmt.Errorf("service: data dir %q was written under config %s, this instance is %s: refusing to replay",
				s.cfg.DataDir, snap.Config, s.digest)
		}
		var ps persistedState
		if err := json.Unmarshal(snap.State, &ps); err != nil {
			store.Close()
			return fmt.Errorf("service: decode snapshot state: %w", err)
		}
		st := promise.State{Engine: ps.Engine, LastJobID: ps.NextJobID}
		if ps.Ledger != nil {
			st.Ledger = *ps.Ledger
		}
		if err := s.eng.Restore(st); err != nil {
			store.Close()
			return fmt.Errorf("service: %w", err)
		}
		if err := s.book.Import(ps.Book); err != nil {
			store.Close()
			return fmt.Errorf("service: restore session book: %w", err)
		}
		clean = ps.Clean
	}
	for _, rec := range recs {
		// The frame checksum passed, so an undecodable or unappliable
		// payload is not a torn tail to skip: it is corruption (or a
		// version skew) that silently dropping would turn into divergence.
		var op walOp
		if err := json.Unmarshal(rec.Payload, &op); err != nil {
			store.Close()
			return fmt.Errorf("service: wal record lsn %d: undecodable payload: %w", rec.LSN, err)
		}
		if err := s.machine.apply(op); err != nil {
			store.Close()
			return fmt.Errorf("service: replay wal record lsn %d: %w", rec.LSN, err)
		}
	}
	replayDur := time.Since(begin)
	if len(recs) > 0 {
		store.SetReplayCost(replayDur, len(recs))
	}
	s.reg.Gauge("qosd_wal_replay_seconds",
		"time spent restoring the snapshot and replaying the WAL at boot", nil).
		Set(replayDur.Seconds())
	s.store = store
	s.info = RecoveryInfo{
		Enabled:         true,
		SnapshotLoaded:  snap != nil,
		RecordsReplayed: len(recs),
		Clean:           clean && len(recs) == 0,
	}
	kind := "crash"
	switch {
	case s.info.Clean:
		kind = "clean"
	case snap == nil && len(recs) == 0:
		kind = "fresh"
	}
	s.reg.Counter("qosd_recoveries_total", "startups by what the data dir held",
		obs.Labels{"kind": kind}).Inc()
	s.reg.Counter("qosd_wal_replayed_records_total", "WAL records replayed at startup", nil).
		Add(float64(len(recs)))
	s.reg.Gauge("qosd_degraded", "1 while the write-ahead log is unavailable", nil).Set(0)
	if len(recs) > 0 {
		// Fold the replayed tail into a fresh snapshot so the next boot
		// starts from here instead of replaying it again.
		if err := s.compact(false); err != nil {
			store.Close()
			s.store = nil
			return fmt.Errorf("service: post-recovery snapshot: %w", err)
		}
	}
	return nil
}

// logOp journals op ahead of applying it. A write failure flips the
// service into degraded mode and means the operation must not happen.
// Runs on the state-machine goroutine. Without a data dir it is a no-op.
func (s *Service) logOp(op walOp) error {
	if s.store == nil {
		return nil
	}
	if s.degraded != nil {
		return errDegraded
	}
	payload, err := json.Marshal(op)
	if err != nil {
		s.broken = fmt.Errorf("service: encode wal op: %w", err)
		return s.broken
	}
	sp := s.curScope.Start("wal.append")
	sp.Annotate("op", op.Kind)
	sp.Annotate("bytes", strconv.Itoa(len(payload)))
	_, aerr := s.store.Append(payload)
	sp.End()
	if aerr != nil {
		s.setDegraded(aerr)
		return fmt.Errorf("%w: %v", errDegraded, aerr)
	}
	s.reg.Counter("qosd_wal_records_total", "WAL records committed", nil).Inc()
	return nil
}

func (s *Service) setDegraded(cause error) {
	s.degraded = cause
	s.degradedMsg.Store(cause.Error())
	s.reg.Gauge("qosd_degraded", "1 while the write-ahead log is unavailable", nil).Set(1)
}

func (s *Service) clearDegraded() {
	s.degraded = nil
	s.degradedMsg.Store("")
	s.reg.Gauge("qosd_degraded", "1 while the write-ahead log is unavailable", nil).Set(0)
}

// probeHeal, called at each request tick while degraded, asks the store
// to repair the log (truncate to the last record boundary and verify an
// fsync goes through). Success restores normal service; the next failed
// append re-degrades.
func (s *Service) probeHeal() {
	if s.store == nil || s.degraded == nil {
		return
	}
	if err := s.store.Heal(); err == nil {
		s.clearDegraded()
	}
}

// maybeCompact snapshots when the risk rule says the accumulated WAL
// replay debt outweighs a snapshot. Called at the start of a request
// tick, when every journaled record is fully applied.
func (s *Service) maybeCompact() {
	if s.store == nil || s.degraded != nil || s.broken != nil {
		return
	}
	if !s.store.ShouldSnapshot() {
		return
	}
	if err := s.compact(false); err != nil {
		// A disk that cannot write snapshots is failing; stop trusting it
		// with new promises until it heals.
		s.setDegraded(err)
	}
}

func (s *Service) compact(clean bool) error {
	sp := s.curScope.Start("snapshot")
	defer sp.End()
	state, err := s.machine.export(clean)
	if err != nil {
		return err
	}
	sp.Annotate("bytes", strconv.Itoa(len(state)))
	if err := s.store.Compact(state, s.digest); err != nil {
		return err
	}
	s.reg.Counter("qosd_snapshots_total", "state snapshots written", nil).Inc()
	return nil
}
