package membership

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestViewCapacityClamped(t *testing.T) {
	v := NewView(0)
	if v.Capacity() != 1 {
		t.Fatalf("capacity = %d, want clamped 1", v.Capacity())
	}
}

func TestViewMergeDedupKeepsFresher(t *testing.T) {
	v := NewView(10)
	v.Merge("self", []Entry{{Addr: "a", Age: 5}})
	v.Merge("self", []Entry{{Addr: "a", Age: 2}})
	entries := v.Entries()
	if len(entries) != 1 || entries[0].Age != 2 {
		t.Fatalf("entries = %v, want single a@2", entries)
	}
	// Staler duplicate must not regress the age.
	v.Merge("self", []Entry{{Addr: "a", Age: 9}})
	if got := v.Entries()[0].Age; got != 2 {
		t.Fatalf("age regressed to %d", got)
	}
}

func TestViewMergeExcludesSelfAndEmpty(t *testing.T) {
	v := NewView(10)
	v.Merge("self", []Entry{{Addr: "self", Age: 0}, {Addr: "", Age: 0}, {Addr: "x", Age: 0}})
	if v.Len() != 1 || !v.Contains("x") {
		t.Fatalf("view = %v", v.Entries())
	}
}

func TestViewCapacityEvictsOldest(t *testing.T) {
	v := NewView(3)
	v.Merge("self", []Entry{
		{Addr: "a", Age: 4}, {Addr: "b", Age: 1},
		{Addr: "c", Age: 3}, {Addr: "d", Age: 2},
	})
	if v.Len() != 3 {
		t.Fatalf("len = %d, want 3", v.Len())
	}
	if v.Contains("a") {
		t.Fatal("oldest entry survived capacity eviction")
	}
	addrs := v.Addrs()
	if addrs[0] != "b" {
		t.Fatalf("freshest-first order broken: %v", addrs)
	}
}

func TestViewAgeAll(t *testing.T) {
	v := NewView(5)
	v.Merge("self", []Entry{{Addr: "a", Age: 0}})
	v.AgeAll()
	v.AgeAll()
	if got := v.Entries()[0].Age; got != 2 {
		t.Fatalf("age = %d, want 2", got)
	}
}

func TestViewSampleAndRemove(t *testing.T) {
	rng := xrand.New(1)
	v := NewView(5)
	if _, ok := v.Sample(rng); ok {
		t.Fatal("empty view sampled")
	}
	v.Merge("self", []Entry{{Addr: "a", Age: 0}, {Addr: "b", Age: 0}})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		addr, ok := v.Sample(rng)
		if !ok {
			t.Fatal("sample failed")
		}
		seen[addr] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("sampling missed entries: %v", seen)
	}
	if !v.Remove("a") || v.Contains("a") {
		t.Fatal("Remove(a) failed")
	}
	if v.Remove("zzz") {
		t.Fatal("Remove of absent address returned true")
	}
}

func TestViewDigest(t *testing.T) {
	rng := xrand.New(2)
	v := NewView(10)
	v.Merge("self", []Entry{{Addr: "a", Age: 0}, {Addr: "b", Age: 1}, {Addr: "c", Age: 2}})
	d := v.Digest(rng, 2)
	if len(d) != 2 {
		t.Fatalf("digest len = %d", len(d))
	}
	if d[0].Addr == d[1].Addr {
		t.Fatal("digest returned duplicates")
	}
	if got := v.Digest(rng, 99); len(got) != 3 {
		t.Fatalf("oversize digest len = %d, want clamped 3", len(got))
	}
	if got := v.Digest(rng, 0); got != nil {
		t.Fatalf("zero digest = %v, want nil", got)
	}
}

func TestStaticSampler(t *testing.T) {
	if _, err := NewStatic(nil); err != ErrNoPeers {
		t.Fatalf("empty peers err = %v", err)
	}
	s, err := NewStatic([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		addr, ok := s.Sample(rng)
		if !ok {
			t.Fatal("sample failed")
		}
		counts[addr]++
	}
	for _, a := range []string{"a", "b", "c"} {
		if counts[a] < 800 {
			t.Fatalf("address %s sampled %d/3000; not uniform", a, counts[a])
		}
	}
	s.Observe("zzz", nil, nil) // no-op
	s.Tick()                   // no-op
	s.Forget("a")              // no-op
	d, dAges := s.AppendDigest(nil, nil, rng, 2)
	if len(d) != 2 || len(dAges) != 2 {
		t.Fatalf("digest = %v / %v", d, dAges)
	}
	if d[0] == d[1] {
		t.Fatal("digest returned duplicates")
	}
	if all, _ := s.AppendDigest(nil, nil, rng, 99); len(all) != 3 {
		t.Fatalf("oversize digest len = %d, want clamped 3", len(all))
	}
}

func TestStaticAppendDigestAllocs(t *testing.T) {
	s, err := NewStatic([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	addrs := make([]string, 0, 8)
	ages := make([]uint32, 0, 8)
	if n := testing.AllocsPerRun(1000, func() {
		addrs, ages = s.AppendDigest(addrs[:0], ages[:0], rng, 3)
	}); n != 0 {
		t.Fatalf("AppendDigest allocs = %v, want 0", n)
	}
}

func TestStaticSamplerCopiesInput(t *testing.T) {
	peers := []string{"a", "b"}
	s, err := NewStatic(peers)
	if err != nil {
		t.Fatal(err)
	}
	peers[0] = "mutated"
	rng := xrand.New(4)
	for i := 0; i < 50; i++ {
		if addr, _ := s.Sample(rng); addr == "mutated" {
			t.Fatal("sampler aliased the caller's slice")
		}
	}
}

func TestGossipSamplerBootstrap(t *testing.T) {
	// No seed but self: an empty view that finds no peer until an
	// inbound message is observed.
	lone, err := NewGossipSampler("self", 5, []string{"self"})
	if err != nil {
		t.Fatal(err)
	}
	if addr, ok := lone.Sample(xrand.New(5)); ok {
		t.Fatalf("empty view sampled %q", addr)
	}
	lone.Observe("peer", nil, nil)
	if addr, ok := lone.Sample(xrand.New(5)); !ok || addr != "peer" {
		t.Fatalf("after Observe sampled %q, %v; want peer", addr, ok)
	}
	g, err := NewGossipSampler("self", 5, []string{"seed1"})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	addr, ok := g.Sample(rng)
	if !ok || addr != "seed1" {
		t.Fatalf("sample = %q, %v", addr, ok)
	}
}

func TestGossipSamplerObserveAndForget(t *testing.T) {
	g, err := NewGossipSampler("self", 4, []string{"seed"})
	if err != nil {
		t.Fatal(err)
	}
	g.Tick() // a round passes before any traffic arrives
	g.Observe("p1", []string{"p2", "p3"}, nil)
	view := g.ViewAddrs()
	if len(view) != 4 {
		t.Fatalf("view = %v, want 4 entries", view)
	}
	// Sender p1 entered at age 0, so it must be freshest.
	if view[0] != "p1" {
		t.Fatalf("freshest = %q, want p1", view[0])
	}
	g.Forget("p2")
	for _, a := range g.ViewAddrs() {
		if a == "p2" {
			t.Fatal("forgotten peer still present")
		}
	}
}

func TestGossipSamplerEvictsStaleUnderChurn(t *testing.T) {
	g, err := NewGossipSampler("self", 3, []string{"dead"})
	if err != nil {
		t.Fatal(err)
	}
	// One gossip round per fresh arrival: the dead seed is never
	// refreshed, so it ages every Tick and must lose to the younger
	// entries once the view fills.
	for i := 0; i < 10; i++ {
		g.Tick()
		g.Observe(fmt.Sprintf("live%d", i), nil, nil)
	}
	for _, a := range g.ViewAddrs() {
		if a == "dead" {
			t.Fatal("stale seed survived 10 rounds of fresh observations with capacity 3")
		}
	}
	if g.ForgottenTotal() != 0 {
		t.Fatalf("capacity eviction counted as Forget: %d", g.ForgottenTotal())
	}
}

func TestGossipSamplerAgesPerRoundNotPerMessage(t *testing.T) {
	// Regression for the sampler-lifecycle bug: Observe used to call
	// view.AgeAll() per incoming message, so at heap-runtime rates
	// (10⁵+ msgs/s) a live peer not mentioned in the last handful of
	// digests aged out of a capacity-8 view within milliseconds. Aging
	// is now driven by Tick, once per gossip round.
	g, err := NewGossipSampler("self", 8, []string{"stable"})
	if err != nil {
		t.Fatal(err)
	}
	senders := []string{"p0", "p1", "p2"}
	for i := 0; i < 100000; i++ {
		g.Observe(senders[i%len(senders)], nil, nil)
	}
	// "stable" was seeded at age 0 and never re-observed; with zero
	// ticks it must still be present at age 0 despite 10⁵ messages.
	age, found := uint32(0), false
	for _, e := range g.view.Entries() {
		if e.Addr == "stable" {
			age, found = e.Age, true
		}
	}
	if !found {
		t.Fatal("unrefreshed live peer evicted by message volume alone")
	}
	if age != 0 {
		t.Fatalf("age = %d after 0 ticks, want 0", age)
	}
	g.Tick()
	g.Tick()
	g.Tick()
	for _, e := range g.view.Entries() {
		if e.Addr == "stable" && e.Age != 3 {
			t.Fatalf("age = %d after 3 ticks, want 3", e.Age)
		}
	}
}

func TestGossipSamplerEclipseFloodBounded(t *testing.T) {
	// Regression for the eclipse-hardening budget, at the message rates
	// of the heap runtime (cf. the per-round aging regression above):
	// before the per-sender insertion cap, one adversary digest of age-0
	// colluding addresses replaced the whole capacity-8 view, and 10⁵
	// such messages between ticks kept it replaced. Now a single sender
	// may insert at most capacity/2 unknown addresses per round, however
	// many messages it sends.
	g, err := NewGossipSampler("self", 8, []string{"h0"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		g.Observe(fmt.Sprintf("h%d", i), nil, nil)
	}
	g.Tick()
	evil := make([]string, 20)
	zero := make([]uint32, 20)
	for i := range evil {
		evil[i] = fmt.Sprintf("evil-%d", i)
	}
	for i := 0; i < 100000; i++ {
		g.Observe("evil-sender", evil, zero)
	}
	evilCount, honestCount := 0, 0
	for _, a := range g.ViewAddrs() {
		if len(a) >= 4 && a[:4] == "evil" {
			evilCount++
		} else {
			honestCount++
		}
	}
	// Sender (first-hand, unbudgeted) + capacity/2 digest insertions.
	if evilCount > 1+4 {
		t.Fatalf("eclipse flood captured %d of %d view slots, want ≤ 5", evilCount, 8)
	}
	if honestCount < 3 {
		t.Fatalf("only %d honest entries survived the flood, want ≥ 3", honestCount)
	}
	if g.InsertsDroppedTotal() == 0 {
		t.Fatal("flood rejected no digest entries")
	}
	// A new round replenishes the budget — but only one round's worth.
	g.Tick()
	g.Observe("evil-sender", evil, zero)
	evilCount = 0
	for _, a := range g.ViewAddrs() {
		if len(a) >= 4 && a[:4] == "evil" {
			evilCount++
		}
	}
	if evilCount > 1+4+4 {
		t.Fatalf("second-round flood captured %d slots, want ≤ 9-capped-at-capacity", evilCount)
	}
}

func TestGossipSamplerAppendDigest(t *testing.T) {
	g, err := NewGossipSampler("self", 8, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	d, dAges := g.AppendDigest(nil, nil, rng, 3)
	if len(d) != 3 || len(dAges) != 3 {
		t.Fatalf("digest len = %d/%d", len(d), len(dAges))
	}
	seen := map[string]bool{}
	for _, a := range d {
		if seen[a] {
			t.Fatal("digest contains duplicates")
		}
		seen[a] = true
	}
	// Append semantics: existing contents are preserved.
	d2, ages2 := g.AppendDigest([]string{"keep"}, []uint32{9}, rng, 2)
	if d2[0] != "keep" || ages2[0] != 9 || len(d2) != 3 {
		t.Fatalf("append clobbered prefix: %v %v", d2, ages2)
	}
}

func TestGossipSamplerHotPathAllocs(t *testing.T) {
	g, err := NewGossipSampler("self", 8, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	senders := []string{"p0", "p1", "p2", "p3"}
	inAddrs := []string{"x", "y"}
	inAges := []uint32{0, 2}
	dAddrs := make([]string, 0, 8)
	dAges := make([]uint32, 0, 8)
	i := 0
	step := func() {
		g.Observe(senders[i%len(senders)], inAddrs, inAges)
		dAddrs, dAges = g.AppendDigest(dAddrs[:0], dAges[:0], rng, 3)
		g.Tick()
		i++
	}
	for w := 0; w < 16; w++ {
		step() // fill the view and grow merge scratch to steady state
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Observe/AppendDigest/Tick allocs = %v, want 0", n)
	}
}

func TestSimValidation(t *testing.T) {
	rng := xrand.New(7)
	if _, err := NewSim(2, 5, rng); err == nil {
		t.Error("n = 2 accepted")
	}
	if _, err := NewSim(10, 1, rng); err == nil {
		t.Error("capacity = 1 accepted")
	}
}

func TestSimStaysConnected(t *testing.T) {
	rng := xrand.New(8)
	s, err := NewSim(200, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 30; c++ {
		s.Cycle()
		if !s.Connected() {
			t.Fatalf("overlay disconnected at cycle %d", c)
		}
	}
}

func TestSimViewsFill(t *testing.T) {
	rng := xrand.New(9)
	s, err := NewSim(100, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		s.Cycle()
	}
	for i := 0; i < 100; i++ {
		if got := s.View(i).Len(); got < 8 {
			t.Fatalf("node %d view has %d entries after 20 cycles, want ≥ 8", i, got)
		}
	}
}

func TestSimInDegreeBalanced(t *testing.T) {
	// Newscast keeps in-degrees concentrated: no node should be absent
	// from every view and no node should dominate.
	rng := xrand.New(10)
	s, err := NewSim(300, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 40; c++ {
		s.Cycle()
	}
	deg := s.InDegrees()
	vals := make([]float64, len(deg))
	for i, d := range deg {
		vals[i] = float64(d)
		if d == 0 {
			t.Fatalf("node %d vanished from every view", i)
		}
	}
	mean := stats.Mean(vals)
	_, maxDeg := stats.MinMax(vals)
	if maxDeg > 6*mean {
		t.Fatalf("hotspot: max in-degree %.0f vs mean %.1f", maxDeg, mean)
	}
}

func TestSimDeadNodeEvicted(t *testing.T) {
	rng := xrand.New(11)
	s, err := NewSim(100, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		s.Cycle()
	}
	s.Kill(42)
	for c := 0; c < 60; c++ {
		s.Cycle()
	}
	deg := s.InDegrees()
	if deg[42] > 3 {
		t.Fatalf("dead node still referenced by %d views after 60 cycles", deg[42])
	}
	if !s.Connected() {
		t.Fatal("overlay lost connectivity after a single death")
	}
}

// evictionTrace drives one view (directly through Merge) and one
// GossipSampler (through Observe/Tick/Forget) with a seeded stream of
// digests drawn from a 40-address pool — far more than either holds, so
// nearly every merge evicts — and renders the survivors after every
// tenth step, in view order with their ages.
func evictionTrace(seed uint64) (view, sampler string) {
	const pool, capacity, steps = 40, 8, 200
	addr := func(i int) string { return fmt.Sprintf("10.0.0.%d:7000#%d", i%5, i) }
	rng := xrand.New(seed)
	v := NewView(capacity)
	g, err := NewGossipSampler(addr(0), capacity, []string{addr(1), addr(2)})
	if err != nil {
		panic(err)
	}
	render := func(es []Entry) string {
		s := ""
		for _, e := range es {
			s += fmt.Sprintf("%s@%d ", e.Addr[len("10.0.0.0:7000#"):], e.Age)
		}
		return s + "| "
	}
	for step := 0; step < steps; step++ {
		k := 1 + rng.Intn(5)
		inc := make([]Entry, k)
		addrs := make([]string, k)
		ages := make([]uint32, k)
		for i := range inc {
			a, age := addr(rng.Intn(pool)), uint32(rng.Intn(4))
			inc[i] = Entry{Addr: a, Age: age}
			addrs[i], ages[i] = a, age
		}
		from := addr(1 + rng.Intn(pool-1))
		v.Merge(addr(0), inc)
		g.Observe(from, addrs, ages)
		switch rng.Intn(8) {
		case 0:
			v.AgeAll()
			g.Tick()
		case 1:
			dead := addr(rng.Intn(pool))
			v.Remove(dead)
			g.Forget(dead)
		}
		if step%10 == 9 {
			view += render(v.Entries())
			g.mu.Lock()
			sampler += render(g.view.Entries())
			g.mu.Unlock()
		}
	}
	return view, sampler
}

// traceSum condenses a rendered eviction trace into one golden word
// (stdlib FNV-1a, deliberately not the package's own addrHash).
func traceSum(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestViewMergeEvictionOrderPinned pins which entries survive capacity
// pressure, and in which order, for fixed seeds. The age tie-break is a
// nonce-salted address hash, so the survivors are a pure function of
// the merge history; the goldens were recorded from the implementation
// that re-hashed both addresses inside the sort comparator, so a view
// that caches the hash beside the address is proven order-preserving.
func TestViewMergeEvictionOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		seed          uint64
		view, sampler uint64
	}{
		{seed: 1, view: 0xfbeef7b458d9e612, sampler: 0x377004e04319594},
		{seed: 2, view: 0xd8053fca549e53f, sampler: 0x90fcfb8607b49cf3},
		{seed: 0xfeedface, view: 0x73e2142404538fa3, sampler: 0x5f14760ac97889b2},
	} {
		view, sampler := evictionTrace(tc.seed)
		gv, gs := traceSum(view), traceSum(sampler)
		if gv != tc.view || gs != tc.sampler {
			t.Errorf("seed %#x: eviction trace hashes view=%#x sampler=%#x, want %#x / %#x\nview:    %s\nsampler: %s",
				tc.seed, gv, gs, tc.view, tc.sampler, view, sampler)
		}
	}
}

// BenchmarkGossipSamplerObserve times the per-message view update with
// the shapes the TCP runtime feeds it: capacity-8 view, three-entry
// digests of host:port#node sub-addresses sliding over a 4 000-node
// population (so most digest entries are new and every merge evicts),
// one Tick per 64 messages.
func BenchmarkGossipSamplerObserve(b *testing.B) {
	addrs := make([]string, 4000)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:40001#%d", i)
	}
	g, err := NewGossipSampler(addrs[0], 8, addrs[1:9])
	if err != nil {
		b.Fatal(err)
	}
	ages := []uint32{0, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := 10 + (i*3)%(len(addrs)-20)
		g.Observe(addrs[at], addrs[at+1:at+4], ages)
		if i&63 == 0 {
			g.Tick()
		}
	}
}
