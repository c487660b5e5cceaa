package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
)

// TestLiveSizeEstimationAcrossEpochs runs the §4 counting protocol on
// the live engine with a real epoch clock: node 0 leads every epoch
// (indicator 1), everyone else starts at 0; after convergence every node
// decodes the network size, and the estimate survives epoch restarts.
func TestLiveSizeEstimationAcrossEpochs(t *testing.T) {
	const size = 12
	schema := core.SummarySchema()
	sizeIdx, err := schema.Index("size")
	if err != nil {
		t.Fatal(err)
	}
	clock, err := epoch.NewClock(time.Now(), 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       schema,
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  3 * time.Millisecond,
		ReplyTimeout: 100 * time.Millisecond,
		Clock:        clock,
		Seed:         300,
		InitState: func(i int) func(uint64, float64) core.State {
			return func(_ uint64, value float64) core.State {
				st := schema.InitState(value)
				if i == 0 {
					st[sizeIdx] = 1
				}
				return st
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	nodes := c.Nodes()

	// Sample size estimates near the end of several consecutive epochs;
	// each must be close to the true size despite the restarts between.
	goodEpochs := 0
	deadline := time.Now().Add(8 * time.Second)
	lastChecked := uint64(0)
	for goodEpochs < 3 && time.Now().Before(deadline) {
		cur := nodes[3].Epoch()
		if _, wait := clock.NextStart(time.Now()); wait > 80*time.Millisecond && cur > lastChecked {
			// Deep enough into epoch cur for ~30+ cycles to have run.
			sum, err := core.DecodeSummary(schema, nodes[3].State())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sum.Size-size) < 1 {
				goodEpochs++
				lastChecked = cur
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if goodEpochs < 3 {
		t.Fatalf("only %d epochs produced an accurate live size estimate", goodEpochs)
	}
}
