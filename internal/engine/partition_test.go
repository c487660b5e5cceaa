package engine

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/transport"
)

// memIndex parses the endpoint number of an in-memory fabric address
// ("mem-1", or a node's sub-address "mem-1#9" → 1) so partition filters
// can split by shard endpoint.
func memIndex(addr string) int {
	i, err := strconv.Atoi(strings.TrimPrefix(transport.BaseAddr(addr), "mem-"))
	if err != nil {
		return -1
	}
	return i
}

// newFabricCluster builds a cluster whose workers each own one endpoint
// of fabric, so every message crosses it and the fabric's partition
// filter and latency apply to all traffic.
func newFabricCluster(t *testing.T, fabric *transport.Fabric, workers int, cfg RuntimeConfig) *Cluster {
	t.Helper()
	cfg.Endpoints = fabricEndpoints(fabric, workers)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Cluster{rt}
}

func TestPartitionHeal(t *testing.T) {
	// Split a cluster into two halves — its two shards, one fabric
	// endpoint each — let each converge to its own average, then heal and
	// verify the halves re-merge to the global average: the
	// failure-injection scenario the anti-entropy design exists to
	// survive.
	const size = 16
	fabric := transport.NewFabric()
	c := newFabricCluster(t, fabric, 2, RuntimeConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) }, // global mean 7.5
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 15 * time.Millisecond, // cross-cut sends must fail fast
		Seed:         77,
	})
	half := func(addr string) int { return memIndex(addr) % 2 } // split even/odd endpoints
	fabric.SetFilter(func(from, to string) bool {
		return half(from) == half(to)
	})
	c.Start(context.Background())
	defer c.Stop()

	// Each half converges to its own mean: evens hold values 0,2,..,14
	// (mean 7), odds hold 1,3,..,15 (mean 8). Wait until within-half
	// disagreement vanishes while the global variance stays up.
	deadline := time.Now().Add(8 * time.Second)
	for {
		vals, err := c.Snapshot("avg")
		if err != nil {
			t.Fatal(err)
		}
		var even, odd []float64
		for i, n := range c.Nodes() {
			if memIndex(n.Addr())%2 == 0 {
				even = append(even, vals[i])
			} else {
				odd = append(odd, vals[i])
			}
		}
		if stats.Variance(even) < 1e-6 && stats.Variance(odd) < 1e-6 {
			if math.Abs(stats.Mean(even)-stats.Mean(odd)) < 0.5 {
				t.Fatalf("halves agree (%g vs %g) despite partition",
					stats.Mean(even), stats.Mean(odd))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("halves did not converge under partition: even=%g odd=%g",
				stats.Variance(even), stats.Variance(odd))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Heal and verify global convergence to the average of the two
	// halves' consensuses (mass was conserved inside each half).
	fabric.SetFilter(nil)
	deadline = time.Now().Add(8 * time.Second)
	for {
		v, err := c.Variance("avg")
		if err != nil {
			t.Fatal(err)
		}
		if v < 1e-6 {
			vals, _ := c.Snapshot("avg")
			if got := stats.Mean(vals); math.Abs(got-7.5) > 0.1 {
				t.Fatalf("post-heal mean %g, want ≈ 7.5", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not re-converge after heal (variance %g)", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTotalPartitionThenHeal(t *testing.T) {
	// Cut ALL traffic: estimates freeze, timeouts accumulate, and no
	// goroutine leaks or panics occur; healing resumes convergence.
	fabric := transport.NewFabric()
	c := newFabricCluster(t, fabric, 2, RuntimeConfig{
		Size:         8,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 10 * time.Millisecond,
		Seed:         78,
	})
	fabric.SetFilter(func(string, string) bool { return false })
	c.Start(context.Background())
	defer c.Stop()

	time.Sleep(100 * time.Millisecond)
	v, err := c.Variance("avg")
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 {
		t.Fatalf("variance %g dropped during total blackout", v)
	}
	var timeouts uint64
	for _, n := range c.Nodes() {
		timeouts += n.Stats().Timeouts
	}
	if timeouts == 0 {
		t.Fatal("no timeouts recorded during blackout")
	}

	fabric.SetFilter(nil)
	if v, ok, _ := c.WaitConverged("avg", 1e-6, 8*time.Second); !ok {
		t.Fatalf("did not converge after heal (variance %g)", v)
	}
}

func TestFabricLatencyClusterStillConverges(t *testing.T) {
	// Nonzero delivery latency violates the paper's zero-time
	// communication assumption; the engine must still converge.
	fabric := transport.NewFabric(
		transport.WithLatency(time.Millisecond, 2*time.Millisecond),
		transport.WithSeed(79),
	)
	c := newFabricCluster(t, fabric, 2, RuntimeConfig{
		Size:         10,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  10 * time.Millisecond,
		ReplyTimeout: 100 * time.Millisecond,
		Seed:         79,
	})
	c.Start(context.Background())
	defer c.Stop()
	if v, ok, _ := c.WaitConverged("avg", 1e-5, 10*time.Second); !ok {
		t.Fatalf("latency cluster stuck at variance %g", v)
	}
}
