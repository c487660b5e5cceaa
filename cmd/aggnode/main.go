// Command aggnode runs live aggregation nodes over TCP — the
// deployable shape of the protocol, assembled through the library's
// front door, repro.Open. Start several processes on one machine (or
// many) and each continuously prints its approximation of the
// network-wide summary.
//
//	# terminal 1 (seed node)
//	aggnode -listen 127.0.0.1:7001 -value 10
//	# terminal 2..n
//	aggnode -listen 127.0.0.1:7002 -peers 127.0.0.1:7001 -value 20
//	aggnode -listen 127.0.0.1:7003 -peers 127.0.0.1:7001 -value 30
//
// Membership beyond the seed peers is discovered via piggybacked gossip;
// with -epoch the protocol restarts periodically so changing -value
// inputs (or SIGHUP-style reconfiguration in a real deployment) are
// picked up (§4 adaptivity).
//
// Every process runs the sharded runtime. With -local N > 1 one process
// hosts N nodes on it: -workers sets the parallel pool size (default
// one per core). This is the shape that scales a single process to
// 10⁵+ protocol participants:
//
//	aggnode -local 10000 -workers 4 \
//	        -listen 127.0.0.1:7001 -peers otherhost:7001
//
// Observability: -ops ADDR starts the operational HTTP endpoint
// (Prometheus /metrics, /healthz, /varz, /debug/pprof/) with the
// aggregation-service API mounted beside it under /v1/ (SSE estimate
// streams, one-shot queries, value injection, fault injection — see
// package repro/serve and cmd/aggload), -trace N
// samples every N-th exchange per shard into a trace ring printed with
// each report, and the periodic report itself includes completion
// percentage, the observed convergence factor ρ̂ and per-worker
// balance:
//
//	aggnode -local 100000 -listen 127.0.0.1:7001 \
//	        -ops 127.0.0.1:9090 -trace 1000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aggnode:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	peers := flag.String("peers", "", "comma-separated seed peer addresses (empty: wait to be contacted)")
	value := flag.Float64("value", 0, "this process's local value a_i (shared by all -local nodes)")
	cycle := flag.Duration("cycle", 500*time.Millisecond, "cycle length Δt")
	epochLen := flag.Duration("epoch", 0, "epoch length for periodic restarts (0 disables)")
	view := flag.Int("view", 8, "membership view capacity")
	report := flag.Duration("report", 2*time.Second, "interval between printed estimates")
	local := flag.Int("local", 1, "number of nodes hosted by this process")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel worker pool size (at most one worker per two nodes; 1 for a single node)")
	ops := flag.String("ops", "", "ops HTTP listen address serving /metrics, /healthz, /varz and /debug/pprof/ (empty disables)")
	trace := flag.Int("trace", 0, "record every n-th exchange per shard into the trace ring; each report prints the most recent records (0 disables)")
	flag.Parse()
	if *local < 1 {
		return fmt.Errorf("-local must be ≥ 1, got %d", *local)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	schema := repro.NewSummarySchema()
	opts := []repro.Option{
		repro.WithContext(ctx),
		repro.WithTCP(*listen, splitPeers(*peers)...),
		repro.WithSize(*local),
		repro.WithSchema(schema),
		repro.WithValue(*value),
		repro.WithCycleLength(*cycle),
		repro.WithMembershipView(*view),
		repro.WithSeed(uint64(time.Now().UnixNano())),
	}
	if *epochLen > 0 {
		opts = append(opts, repro.WithEpochLength(*epochLen))
	}
	if *workers > 0 {
		opts = append(opts, repro.WithWorkers(*workers))
	}
	if *ops != "" {
		opts = append(opts, repro.WithOps(*ops))
	}
	if *trace > 0 {
		opts = append(opts, repro.WithTraceSampling(*trace))
	}
	sys, err := repro.Open(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	if *ops != "" {
		if _, err := serve.Attach(sys); err != nil {
			return err
		}
	}

	probe := sys.Nodes()[0]
	fmt.Printf("aggnode hosting %d node(s) on %d worker(s), first endpoint %s (value %g, Δt %v)\n",
		sys.Size(), sys.Workers(), probe.Addr(), *value, *cycle)
	if addr := sys.OpsAddr(); addr != "" {
		fmt.Printf("ops endpoint on http://%s (/metrics /healthz /varz /debug/pprof/ /v1/)\n", addr)
	}

	ticker := time.NewTicker(*report)
	defer ticker.Stop()
	var lastInitiated uint64
	lastReport := time.Now()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			summary, err := repro.DecodeSummary(schema, probe.State())
			if err != nil {
				return err
			}
			tel := sys.Telemetry()
			s := tel.Stats
			now := time.Now()
			rate := float64(s.Initiated-lastInitiated) / now.Sub(lastReport).Seconds()
			lastInitiated, lastReport = s.Initiated, now
			perWorker := rate / float64(sys.Workers())
			fmt.Printf("epoch=%d avg=%.4f min=%.4f max=%.4f exchanges=%d/%d (%s) rate=%.0f/s (%.0f/s/worker) rho=%s timeouts=%d busy=%d balance=%s\n",
				probe.Epoch(), summary.Mean, summary.Min, summary.Max,
				s.Replies, s.Initiated, percent(tel.Completion), rate, perWorker,
				rho(tel.Rho), s.Timeouts, s.PeerBusy,
				balance(tel.ShardInitiated))
			if *trace > 0 {
				for _, r := range sys.Trace(3) {
					fmt.Printf("  trace %s\n", r)
				}
			}
		}
	}
}

// percent renders a completion ratio ("—" before the first exchange).
func percent(v float64) string {
	if v != v { // NaN
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

// rho renders the observed convergence factor ("—" until the tracker
// has seen two informative cycles).
func rho(v float64) string {
	if v != v { // NaN
		return "—"
	}
	return fmt.Sprintf("%.3f", v)
}

// balance summarizes per-worker load as min/max shares of the initiated
// exchanges ("n/a" before any exchange).
func balance(shard []uint64) string {
	var total, lo, hi uint64
	lo = shard[0]
	for _, v := range shard {
		total += v
		lo = min(lo, v)
		hi = max(hi, v)
	}
	if total == 0 {
		return "n/a"
	}
	mean := float64(total) / float64(len(shard))
	return fmt.Sprintf("%.2f–%.2f×", float64(lo)/mean, float64(hi)/mean)
}

// splitPeers parses the -peers flag.
func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
