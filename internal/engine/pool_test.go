package engine

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFieldsPoolLengthGuards: only buffers of the pool's schema length
// are recycled; everything else (foreign schema, nil) is dropped, never
// resurfacing from get.
func TestFieldsPoolLengthGuards(t *testing.T) {
	p := newFieldsPool(3)
	p.put(nil)
	p.put([]float64{1, 2}) // wrong length: dropped
	if buf := p.get(); len(buf) != 3 {
		t.Fatalf("get returned length %d, want 3", len(buf))
	}
	l := newLocalFree(p, 4)
	l.put([]float64{1})
	if len(l.free) != 0 {
		t.Fatal("local tier accepted a wrong-length buffer")
	}
	l.put(make([]float64, 3))
	if len(l.free) != 1 {
		t.Fatal("local tier rejected a correct buffer")
	}
	if buf := l.get(); len(buf) != 3 || len(l.free) != 0 {
		t.Fatalf("local get: len(buf)=%d free=%d", len(buf), len(l.free))
	}
	// Overflow spills to the shared pool instead of growing past cap.
	small := localFree{pool: p, cap: 1}
	small.put(make([]float64, 3))
	small.put(make([]float64, 3))
	if len(small.free) != 1 {
		t.Fatalf("local tier grew to %d past its cap of 1", len(small.free))
	}
}

// TestPoolBuffersNotObservedAfterPut hammers one shard with concurrent
// exchange, reply and reap (timeout) traffic — a lossy fabric forces
// all three paths — while observer goroutines read node state through
// every API that touches the shard. Under -race the detector flags any
// access to a buffer whose ownership was mishandled; under the
// pooldebug build tag, put poisons buffers with a signaling NaN
// pattern, get panics if a recycled buffer was written after being
// returned, and the final sweep below fails if poison was ever read
// into node state. The three modes together assert the ownership rule:
// no Fields buffer is observed after it was returned to the pool.
func TestPoolBuffersNotObservedAfterPut(t *testing.T) {
	if poolDebug {
		t.Log("pooldebug build: poison-on-put diagnostics active")
	}
	// 30% loss produces reply timeouts (the reap path) alongside served
	// pushes, busy-nacks and merged replies, and recycles every dropped
	// letter's buffer through the loss stage; Workers=1 concentrates all
	// of it on one shard.
	schema := core.SummarySchema()
	c, err := NewCluster(ClusterConfig{
		Size:         96,
		Schema:       schema,
		Value:        func(i int) float64 { return float64(i % 7) },
		CycleLength:  200 * time.Microsecond, // saturating: constant churn of buffers
		ReplyTimeout: 2 * time.Millisecond,
		Workers:      1,
		Seed:         99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoss(0.3); err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	rt := c.Runtime
	observers := []func(){
		func() { _, _ = c.Snapshot("avg") },
		func() {
			_ = c.ReduceField("max", func(v float64) {
				if math.IsNaN(v) {
					panic("NaN observed in max field mid-run")
				}
			})
		},
		func() { _ = rt.NodeState(13) },
		func() { rt.SetValue(7, 3.5) },
		func() { _ = rt.Stats() },
	}
	for _, obs := range observers {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}(obs)
	}
	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := rt.Stats()
	c.Stop()

	if st.Timeouts == 0 || st.Served == 0 || st.Replies == 0 {
		t.Fatalf("hammer did not cover exchange/reply/reap: %+v", st)
	}
	// The buffer ledger balances at rest: the one shard got back every
	// buffer it drew, each dropped letter's through the loss stage.
	s := rt.shards[0]
	s.mu.Lock()
	draws, puts, drops := s.free.gets+s.free.misses, s.free.puts, s.ctr.lossDropped.Load()
	s.mu.Unlock()
	if drops == 0 || draws != puts {
		t.Fatalf("%d buffers drawn, %d recycled (%d letters dropped): the loss stage leaked buffers", draws, puts, drops)
	}
	// Poison sweep: a use-after-put read would have merged NaN into some
	// node's state (every aggregate propagates NaN).
	for _, field := range schema.FieldNames() {
		if err := c.ReduceField(field, func(v float64) {
			if math.IsNaN(v) {
				t.Fatalf("field %q holds NaN: a recycled buffer was observed after put", field)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}
