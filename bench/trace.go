package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one client-side interval of the traced run: run → phase →
// request, plus one span per layer probe. Parent is the span that
// caused it (an SSE event's span names the POST it made visible). Times
// are nanoseconds since the tracer started. Spans are recorded from the
// benchmark's own files, around the calls into each layer; spans inside
// the program are a later change.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// scrapePoint is one 1 Hz reading of the systems' metric registries.
type scrapePoint struct {
	AtNs   int64  `json:"at_ns"`
	Series scrape `json:"series"`
}

// tracer holds the traced run's spans and scrapes in memory; nothing is
// written until the run ends. A nil *tracer records nothing, which is
// how the untraced run stays untraced.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	scrapes []scrapePoint
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer;
// real ids start at 1, so 0 doubles as "no parent").
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// begin opens a span whose end is not yet known; end closes it.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, nil)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) scrape(s scrape) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scrapes = append(t.scrapes, scrapePoint{AtNs: time.Since(t.t0).Nanoseconds(), Series: s})
	t.mu.Unlock()
}

// budgetRow is one layer's share of an exchange: its probe's cost per
// call times how often the exchange path calls it.
type budgetRow struct {
	Metric       string  `json:"metric"`
	NsPerCall    float64 `json:"ns_per_call"`
	Multiplicity float64 `json:"multiplicity"`
	Ns           float64 `json:"ns"`
}

// budget is the per-exchange cost table of a live workload: probe rows
// × multiplicities, their sum, the observed cpu_ns_per_exchange of the
// untraced window, and what the rows do not explain.
type budget struct {
	Workload      string      `json:"workload"`
	Rows          []budgetRow `json:"rows"`
	SumNs         float64     `json:"sum_ns"`
	ObservedNs    float64     `json:"observed_cpu_ns_per_exchange"`
	UnattributedN float64     `json:"unattributed_ns"`
}

func (b *budget) add(metric string, nsPerCall, multiplicity float64) {
	row := budgetRow{Metric: metric, NsPerCall: nsPerCall, Multiplicity: multiplicity, Ns: nsPerCall * multiplicity}
	b.Rows = append(b.Rows, row)
	b.SumNs += row.Ns
}

// close fixes the observed cost and the residual.
func (b *budget) close(observedNs float64) {
	b.ObservedNs = observedNs
	b.UnattributedN = observedNs - b.SumNs
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "  budget for one %s exchange (probe ns × calls per exchange)\n", b.Workload)
	for _, row := range b.Rows {
		fmt.Fprintf(w, "    %-40s %9.1f ns × %5.2f = %9.1f ns\n", row.Metric, row.NsPerCall, row.Multiplicity, row.Ns)
	}
	fmt.Fprintf(w, "    %-40s %31.1f ns\n", "sum of rows", b.SumNs)
	fmt.Fprintf(w, "    %-40s %31.1f ns\n", "engine.unattributed_ns", b.UnattributedN)
	fmt.Fprintf(w, "    %-40s %31.1f ns\n", "observed cpu_ns_per_exchange", b.ObservedNs)
}

// traceFile is what <outDir>/<workload>.trace.json holds. ShouldMove
// repeats, for each per-layer metric, the end-to-end metric it was
// predicted to move before anything was measured.
type traceFile struct {
	Result     *result           `json:"result"`
	ShouldMove map[string]string `json:"should_move"`
	Spans      []span            `json:"spans"`
	Scrapes    []scrapePoint     `json:"scrapes"`
}

// write dumps the trace beside the run's other outputs.
func (t *tracer) write(outDir string, r *result) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, r.Workload+".trace.json")
	moves := make(map[string]string, len(perLayer))
	for _, def := range perLayer {
		moves[def.name] = def.moves
	}
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Result: r, ShouldMove: moves, Spans: t.spans, Scrapes: t.scrapes})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
