// Negotiation: the market-based dialog of §3.5 made visible. The system
// quotes "job j can be completed by deadline d with probability p" offers;
// relaxing the deadline buys a higher probability, and users with different
// risk strategies U accept different offers.
package main

import (
	"fmt"
	"log"

	"probqos"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 16-node cluster whose failure trace has a cluster-wide fault
	// episode three hours in: half the nodes see highly detectable
	// failures, half see harder ones.
	var events []probqos.FailureEvent
	for n := 0; n < 16; n++ {
		px := 0.25
		if n%2 == 1 {
			px = 0.85
		}
		events = append(events, probqos.FailureEvent{
			Time:          probqos.Time(3 * probqos.Hour),
			Node:          n,
			Detectability: px,
		})
	}
	trace, err := probqos.NewFailureTrace(16, events)
	if err != nil {
		return err
	}
	system, err := probqos.NewSystem(16, trace, 0.7 /* prediction accuracy */)
	if err != nil {
		return err
	}

	// A full-machine job of four hours must overlap the episode or wait it
	// out. Show the quote ladder the user sees; it ends at the first
	// risk-free offer, which every user accepts.
	const size = 16
	exec := probqos.Duration(4 * probqos.Hour)
	fmt.Printf("job: %d nodes, %d s execution (reserved %d s with checkpoints)\n\n",
		size, exec, system.PlannedDuration(exec))
	fmt.Println("the system's successive offers:")
	quotes := system.Quotes(size, exec, 8)
	for i, q := range quotes {
		fmt.Printf("  offer %d: start %-13v deadline %-13v p(success) %.2f\n",
			i+1, q.Candidate.Start, q.Deadline, q.Success)
	}

	// Three users, three strategies: each accepts the earliest offer whose
	// promise clears its threshold U (Equation 3).
	fmt.Println("\nwhat different users accept:")
	for _, u := range []float64{0.1, 0.6, 0.95} {
		rank, q, err := accept(u, quotes)
		if err != nil {
			return err
		}
		fmt.Printf("  U=%.2f accepts offer %d: deadline %-13v with p=%.2f\n",
			u, rank, q.Deadline, q.Success)
	}
	// The system-initiated form of the dialog (§3.3): suggest the earliest
	// deadline that clears a success bar, citing the improved probability.
	_, suggestion, err := accept(0.99, quotes)
	if err != nil {
		return err
	}
	fmt.Printf("\nsystem suggestion for p >= 0.99: deadline %v (p=%.2f)\n",
		suggestion.Deadline, suggestion.Success)

	// The cautious user commits to its offer; running the clock to the
	// deadline settles the promise in the ledger.
	rank, q, err := accept(0.95, quotes)
	if err != nil {
		return err
	}
	job := probqos.Job{ID: system.NextJobID(), Nodes: size, Exec: exec}
	if err := system.Admit(job, q, rank, ""); err != nil {
		return err
	}
	if err := system.AdvanceTo(q.Deadline); err != nil {
		return err
	}
	fmt.Printf("\nU=0.95 commits; at its deadline the ledger has kept %d of 1 promise\n",
		system.Ledger().Stats().Kept)

	fmt.Println("\nrelaxing the deadline buys probability: that is the incentive")
	fmt.Println("structure that keeps both sides honest.")
	return nil
}

// accept returns the earliest offer a user of risk strategy u takes from
// the ladder, with its 1-based rank.
func accept(u float64, quotes []probqos.Quote) (int, probqos.Quote, error) {
	user := probqos.User{U: u}
	for i, q := range quotes {
		if user.Accepts(q.Success) {
			return i + 1, q, nil
		}
	}
	return 0, probqos.Quote{}, fmt.Errorf("no offer promises p >= %.2f", u)
}
