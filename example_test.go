package repro_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/scenario"
)

// ExampleRun executes one declarative spec — the paper's AVG protocol
// on 64 nodes holding the values 0…63 — and reads the converged
// estimate off the materialized result.
func ExampleRun() {
	values := make([]float64, 64)
	for i := range values {
		values[i] = float64(i) // true average 31.5
	}
	res, err := repro.Run(context.Background(), scenario.Spec{
		Size:   64,
		Cycles: 20,
		Values: values,
		Seed:   1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every node estimates %.1f after %d cycles\n",
		res.FinalMean, len(res.Variances)-1)
	// Output: every node estimates 31.5 after 20 cycles
}

// ExampleOpen opens a live in-memory aggregation system and watches
// typed per-cycle snapshots stream out of it until the cross-node
// variance vanishes — aggregation as a continuously queried service.
func ExampleOpen() {
	sys, err := repro.Open(
		repro.WithSize(16),
		repro.WithValues(func(i int) float64 { return float64(2 * i) }), // true average 15
		repro.WithCycleLength(2*time.Millisecond),
		repro.WithReplyTimeout(time.Second),
		repro.WithSeed(6),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	estimates, err := sys.Watch(ctx, "avg")
	if err != nil {
		log.Fatal(err)
	}
	for est := range estimates {
		if est.Variance <= 1e-9 {
			fmt.Printf("%d nodes converged near %.0f\n", est.Nodes, est.Mean)
			cancel() // the Watch channel closes within one cycle
		}
	}
	// Output: 16 nodes converged near 15
}

// ExampleSystem_Reduce folds every node's state shard by shard —
// without materializing an N-length vector — into a streaming
// accumulator.
func ExampleSystem_Reduce() {
	sys, err := repro.Open(
		repro.WithSize(256),
		repro.WithValues(func(i int) float64 { return float64(i % 8) }), // mean 3.5
		repro.WithCycleLength(2*time.Millisecond),
		repro.WithReplyTimeout(time.Second),
		repro.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sys.WaitConverged(ctx, "avg", 1e-9); err != nil {
		log.Fatal(err)
	}
	var run repro.Running
	if err := sys.Reduce(ctx, "avg", &run); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d mean=%.1f\n", run.N(), run.Mean())
	// Output: n=256 mean=3.5
}
