package promise

import (
	"reflect"
	"testing"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/negotiate"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

func newMachine(t *testing.T, nodes int, events []failure.Event, edit func(*sim.Config)) *Machine {
	t.Helper()
	tr, err := failure.NewTrace(nodes, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(nil, tr)
	cfg.Nodes = nodes
	cfg.Accuracy = 1
	if edit != nil {
		edit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		edit    func(*sim.Config)
		wantErr bool
	}{
		{name: "ok", edit: func(*sim.Config) {}},
		{name: "nil trace", edit: func(c *sim.Config) { c.Failures = nil }, wantErr: true},
		{name: "node mismatch", edit: func(c *sim.Config) { c.Nodes = 16 }, wantErr: true},
		{name: "bad accuracy", edit: func(c *sim.Config) { c.Accuracy = 1.5 }, wantErr: true},
		{
			name:    "bad checkpoint params",
			edit:    func(c *sim.Config) { c.Checkpoint = checkpoint.Params{} },
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := sim.DefaultConfig(nil, tr)
			cfg.Nodes = 8
			tt.edit(&cfg)
			if _, err := New(cfg); (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestPlannedDuration pins E_j, the wall time reserved for a job: its
// execution plus C for every checkpoint request at each full interval I
// of progress that still leaves work to do.
func TestPlannedDuration(t *testing.T) {
	tests := []struct {
		name   string
		params checkpoint.Params
		exec   units.Duration
		want   units.Duration
	}{
		{name: "zero", exec: 0, want: 0},
		{name: "under one interval", exec: 3600, want: 3600},
		{name: "just over", exec: 3601, want: 3601 + 720},
		{name: "two and a half intervals", exec: 9000, want: 9000 + 2*720},
		{name: "custom params", params: checkpoint.Params{Interval: 100, Overhead: 10}, exec: 250, want: 250 + 2*10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := newMachine(t, 8, nil, func(c *sim.Config) {
				if tt.params != (checkpoint.Params{}) {
					c.Checkpoint = tt.params
				}
			})
			if got := m.PlannedDuration(tt.exec); got != tt.want {
				t.Errorf("PlannedDuration(%d) = %d, want %d", tt.exec, got, tt.want)
			}
		})
	}
}

// admitFirst admits a job on the first offer of its quote ladder.
func admitFirst(t *testing.T, m *Machine, nodes int, exec units.Duration) workload.Job {
	t.Helper()
	qs := m.Quotes(nodes, exec, 1)
	if len(qs) != 1 {
		t.Fatalf("no offer for %d nodes", nodes)
	}
	job := workload.Job{ID: m.NextJobID(), Arrival: m.Now(), Nodes: nodes, Exec: exec}
	if err := m.Admit(job, qs[0], 1, ""); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestQuotesFollowConfig checks that the scheduler switches in sim.Config
// reach the machine's quotes: fault-aware placement avoids a predicted
// failure that first-fit walks into, and the downtime slack widens the
// risk window back over a failure just before the offered start.
func TestQuotesFollowConfig(t *testing.T) {
	tests := []struct {
		name   string
		nodes  int
		events []failure.Event
		edit   func(*sim.Config)
		// blocker, when positive, first occupies every node for that long,
		// pushing the probed offer's start to its end.
		blocker units.Duration
		size    int
		exec    units.Duration
		want    float64
	}{
		{
			name: "fault-aware avoids the failing node", nodes: 4,
			events: []failure.Event{{Time: 500, Node: 0, Detectability: 0.4}},
			size:   2, exec: 1000, want: 1,
		},
		{
			name: "first-fit includes the failing node", nodes: 4,
			events: []failure.Event{{Time: 500, Node: 0, Detectability: 0.4}},
			edit:   func(c *sim.Config) { c.FaultAware = false },
			size:   2, exec: 1000, want: 0.6,
		},
		{
			name: "downtime slack sees a failure 60 s before the start", nodes: 1,
			events:  []failure.Event{{Time: 940, Node: 0, Detectability: 0.5}},
			edit:    func(c *sim.Config) { c.Downtime = 2 * units.Minute },
			blocker: 1000, size: 1, exec: 500, want: 0.5,
		},
		{
			name: "zero slack ignores it", nodes: 1,
			events:  []failure.Event{{Time: 940, Node: 0, Detectability: 0.5}},
			edit:    func(c *sim.Config) { c.Downtime = 0 },
			blocker: 1000, size: 1, exec: 500, want: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := newMachine(t, tt.nodes, tt.events, tt.edit)
			if tt.blocker > 0 {
				admitFirst(t, m, tt.nodes, tt.blocker)
			}
			qs := m.Quotes(tt.size, tt.exec, 1)
			if len(qs) != 1 {
				t.Fatalf("quotes = %+v", qs)
			}
			if tt.blocker > 0 && qs[0].Candidate.Start != units.Time(tt.blocker) {
				t.Fatalf("offer starts at %v, want after the blocker at %v", qs[0].Candidate.Start, tt.blocker)
			}
			if qs[0].Success != tt.want {
				t.Errorf("success = %v, want %v (quote %+v)", qs[0].Success, tt.want, qs[0])
			}
		})
	}
}

// TestQuotesAndAdmitFlow runs the §3.5 dialog on the machine: the quote
// ladder climbs from the risky immediate slot to certainty, a user with
// U=0.9 accepts a later offer, and the admitted job ID cannot reserve a
// second slot.
func TestQuotesAndAdmitFlow(t *testing.T) {
	var events []failure.Event
	for n := 0; n < 8; n++ {
		events = append(events, failure.Event{Time: 1000, Node: n, Detectability: 0.3})
	}
	m := newMachine(t, 8, events, nil)

	quotes := m.Quotes(8, 2000, 4)
	if len(quotes) < 2 {
		t.Fatalf("quotes = %+v", quotes)
	}
	if quotes[0].Success != 0.7 {
		t.Errorf("first quote success = %v, want 0.7", quotes[0].Success)
	}
	if last := quotes[len(quotes)-1]; last.Success != 1 {
		t.Errorf("final quote success = %v, want 1", last.Success)
	}

	user, err := negotiate.NewUser(0.9)
	if err != nil {
		t.Fatal(err)
	}
	rank := 0
	for i, q := range quotes {
		if user.Accepts(q.Success) {
			rank = i + 1
			break
		}
	}
	if rank < 2 {
		t.Fatalf("U=0.9 accepted offer %d of %+v", rank, quotes)
	}
	q := quotes[rank-1]
	job := workload.Job{ID: m.NextJobID(), Nodes: 8, Exec: 2000}
	if err := m.Admit(job, q, rank, ""); err != nil {
		t.Fatal(err)
	}
	if p, ok := m.Ledger().Lookup(job.ID); !ok || p.Promised != q.Success || p.Deadline != q.Deadline {
		t.Errorf("ledger row %+v ok=%v, want the accepted quote %+v", p, ok, q)
	}

	// The same job ID cannot reserve twice, even on a fresh slot; a new
	// ID can.
	fresh := m.Quotes(8, 2000, 1)
	if len(fresh) != 1 || fresh[0].Candidate.Start == q.Candidate.Start {
		t.Fatalf("fresh quote %+v reuses the committed slot", fresh)
	}
	if err := m.Admit(job, fresh[0], 1, ""); err == nil {
		t.Error("duplicate job ID admitted")
	}
	next := workload.Job{ID: m.NextJobID(), Nodes: 8, Exec: 2000}
	if err := m.Admit(next, fresh[0], 1, ""); err != nil {
		t.Errorf("admit under a new ID failed: %v", err)
	}
	if st := m.Ledger().Stats(); st.Promises != 2 {
		t.Errorf("ledger after two admits: %+v", st)
	}
}

// riskyNode is a stub predictor that forecasts failure with probability p
// for any node set containing node, and none otherwise.
type riskyNode struct {
	node int
	p    float64
}

func (r riskyNode) PFail(nodes []int, _, _ units.Time) float64 {
	for _, n := range nodes {
		if n == r.node {
			return r.p
		}
	}
	return 0
}

// TestPFailPassthrough checks that the machine prices its quotes with the
// configured predictor rather than the trace: an offer that must use the
// risky node promises 1 - PFail, and a fault-aware offer that can dodge it
// promises certainty.
func TestPFailPassthrough(t *testing.T) {
	// The trace's own failure (detectability 0.4) must not leak into the
	// price: only the stub's 0.25 may.
	events := []failure.Event{{Time: 500, Node: 2, Detectability: 0.4}}
	m := newMachine(t, 4, events, func(c *sim.Config) {
		c.Predictor = riskyNode{node: 2, p: 0.25}
	})
	if q := m.Quotes(4, 1000, 1); len(q) != 1 || q[0].Success != 0.75 {
		t.Errorf("whole-machine quote = %+v, want success 0.75", q)
	}
	q := m.Quotes(3, 1000, 1)
	if len(q) != 1 || q[0].Success != 1 {
		t.Fatalf("three-node quote = %+v, want success 1", q)
	}
	for _, n := range q[0].Candidate.Nodes {
		if n == 2 {
			t.Errorf("fault-aware quote %+v uses the risky node", q[0])
		}
	}
}

// TestEarliestAcceptableQuote finds the earliest offer clearing a demanding
// bar — Quotes plus User.Accepts — and checks it lands after the predicted
// episode while reserving nothing: the immediate slot is still offered.
func TestEarliestAcceptableQuote(t *testing.T) {
	var events []failure.Event
	for n := 0; n < 8; n++ {
		events = append(events, failure.Event{Time: 2000, Node: n, Detectability: 0.5})
	}
	m := newMachine(t, 8, events, nil)
	user, err := negotiate.NewUser(0.95)
	if err != nil {
		t.Fatal(err)
	}
	var (
		best  negotiate.Quote
		found bool
	)
	for _, q := range m.Quotes(8, 3000, 8) {
		if user.Accepts(q.Success) {
			best, found = q, true
			break
		}
	}
	if !found || best.Success < 0.95 || best.Candidate.Start <= 2000 {
		t.Errorf("earliest acceptable quote = %+v (found %v)", best, found)
	}
	first := m.Quotes(8, 3000, 1)
	if len(first) != 1 || first[0].Candidate.Start != 0 {
		t.Errorf("quotes must not reserve: %+v", first)
	}
	if _, err := negotiate.NewUser(1.5); err == nil {
		t.Error("invalid threshold accepted")
	}
}

// TestAdmitAdvanceSettleAndRestore walks one promise through the machine:
// admit files it, a rejected admit still burns its ID, the advance past
// the job's finish settles it kept, and Export/Restore reproduces the
// whole state on a fresh machine.
func TestAdmitAdvanceSettleAndRestore(t *testing.T) {
	m := newMachine(t, 4, nil, nil)
	job := admitFirst(t, m, 4, 600)
	if job.ID != 1 || m.NextJobID() != 2 {
		t.Fatalf("first job ID %d, next %d; want 1, 2", job.ID, m.NextJobID())
	}
	if p, ok := m.Ledger().Lookup(1); !ok || p.Outcome != OutcomePending || p.Promised != 1 {
		t.Fatalf("ledger row after admit: %+v ok=%v", p, ok)
	}

	// An oversized job is rejected, files nothing, and still burns ID 7.
	qs := m.Quotes(4, 600, 1)
	bad := workload.Job{ID: 7, Nodes: 5, Exec: 600}
	if err := m.Admit(bad, qs[0], 1, "s-7"); err == nil {
		t.Fatal("oversized job admitted")
	}
	if m.NextJobID() != 8 || m.Ledger().Stats().Promises != 1 {
		t.Fatalf("after rejected admit: next %d, ledger %+v", m.NextJobID(), m.Ledger().Stats())
	}
	if err := m.InjectFailure(2, 5000); err != nil {
		t.Fatal(err)
	}

	if err := m.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if st := m.Ledger().Stats(); st.Kept != 1 || st.Open != 0 {
		t.Fatalf("after the job finished: %+v", st)
	}

	exported := m.Export()
	fresh := newMachine(t, 4, nil, nil)
	if err := fresh.Restore(exported); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Export(); !reflect.DeepEqual(got, exported) {
		t.Errorf("restored state differs:\n got %+v\nwant %+v", got, exported)
	}
	if fresh.NextJobID() != 8 || fresh.Now() != m.Now() || fresh.Stats() != m.Stats() {
		t.Errorf("restored machine: next %d now %v stats %+v; want 8 %v %+v",
			fresh.NextJobID(), fresh.Now(), fresh.Stats(), m.Now(), m.Stats())
	}

	// Draining runs the injected failure and leaves nothing pending.
	if err := fresh.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.PendingEvents != 0 || st.Now < 5000 {
		t.Errorf("after drain: %+v", st)
	}
}
