package repro

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestOpenClusterValidation(t *testing.T) {
	if _, err := OpenCluster(1); err == nil {
		t.Error("1-member cluster accepted")
	}
	if _, err := OpenCluster(2, WithTCP("127.0.0.1:0")); err == nil {
		t.Error("WithTCP accepted by OpenCluster")
	}
	if _, err := OpenCluster(2, WithSize(3)); err == nil {
		t.Error("WithSize accepted by OpenCluster")
	}
}

func TestOpenClusterMatchesInProcessHeap(t *testing.T) {
	// The tentpole's equivalence claim: a gossip-membership cluster of
	// single-node TCP systems (no static directory anywhere) must reach
	// the same mean fixed point as the in-process heap runtime on the
	// same inputs and seeds.
	if testing.Short() {
		t.Skip("real TCP sockets; skipped in -short mode")
	}
	const n = 4
	values := func(i int) float64 { return float64(3 + 2*i) } // mean 6
	const want = 6.0

	g, err := OpenCluster(n,
		WithValues(values),
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(500*time.Millisecond),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	gEst, err := g.WaitConverged(ctx, "avg", 1e-6)
	if err != nil {
		t.Fatalf("cluster group stuck at variance %g: %v", gEst.Variance, err)
	}
	if gEst.Nodes != n {
		t.Fatalf("group snapshot folded %d nodes, want %d", gEst.Nodes, n)
	}

	sys, err := Open(
		WithSize(n),
		WithValues(values),
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(500*time.Millisecond),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sEst, err := sys.WaitConverged(ctx, "avg", 1e-6)
	if err != nil {
		t.Fatalf("in-process system stuck at variance %g: %v", sEst.Variance, err)
	}

	if math.Abs(gEst.Mean-want) > 0.05 {
		t.Errorf("cluster group mean %g, want ≈ %g", gEst.Mean, want)
	}
	if math.Abs(sEst.Mean-want) > 0.05 {
		t.Errorf("in-process mean %g, want ≈ %g", sEst.Mean, want)
	}
	if math.Abs(gEst.Mean-sEst.Mean) > 0.05 {
		t.Errorf("fixed points diverge: cluster %g vs in-process %g", gEst.Mean, sEst.Mean)
	}
}

func TestOpenWithGossipMembership(t *testing.T) {
	// An in-memory system on live gossip membership (ring bootstrap,
	// view capacity 8, fanout-3 digests) must still converge to the
	// true mean.
	const size = 16
	sys, err := Open(
		WithSize(size),
		WithGossipMembership(),
		WithValues(func(i int) float64 { return float64(i) }),
		WithCycleLength(2*time.Millisecond),
		WithReplyTimeout(200*time.Millisecond),
		WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	est, err := sys.WaitConverged(ctx, "avg", 1e-4)
	if err != nil {
		t.Fatalf("gossip-membership system stuck at variance %g: %v", est.Variance, err)
	}
	want := float64(size-1) / 2
	if math.Abs(est.Mean-want) > 0.05 {
		t.Errorf("converged mean %g, want ≈ %g", est.Mean, want)
	}
}
