// Package membership provides the peer-sampling substrate the paper
// assumes: "each node has a neighbor set … the protocol can be used along
// with any membership management protocol" (§1.2), citing Newscast-style
// protocols that maintain approximately random views. This package
// implements a Newscast-flavored partial view (fixed capacity, freshest
// entries win), thread-safe samplers for the asynchronous engine, and a
// cycle-driven simulation used to property-test the randomness and
// self-healing of the resulting overlay.
package membership

import (
	"cmp"
	"slices"

	"repro/internal/xrand"
)

// Entry is one view slot: a peer address and a logical age (0 = freshest).
type Entry struct {
	// Addr is the peer's transport address.
	Addr string
	// Age counts exchanges since the entry was created by its subject;
	// older entries are evicted first, which is how dead peers wash out.
	Age uint32
	// hash caches addrHash(Addr) for entries held by a View, which sets
	// it on insertion; it is never trusted on an entry handed in from
	// outside.
	hash uint64
}

// View is a fixed-capacity partial view of the network, ordered freshest
// first. The zero value is not valid; use NewView. View is not
// goroutine-safe; see GossipSampler for the locked wrapper.
type View struct {
	capacity int
	entries  []Entry
	// nonce varies the age tie-break across merges; see Merge.
	nonce uint64
}

// NewView returns an empty view holding at most capacity entries
// (capacity ≥ 1; smaller values are clamped to 1).
func NewView(capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	return &View{capacity: capacity, entries: make([]Entry, 0, capacity)}
}

// Capacity returns the view's maximum size.
func (v *View) Capacity() int { return v.capacity }

// Len returns the number of entries currently held.
func (v *View) Len() int { return len(v.entries) }

// Entries returns a copy of the view, freshest first.
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// Addrs returns the addresses currently in the view, freshest first.
func (v *View) Addrs() []string {
	out := make([]string, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.Addr
	}
	return out
}

// Contains reports whether addr is in the view.
func (v *View) Contains(addr string) bool {
	for _, e := range v.entries {
		if e.Addr == addr {
			return true
		}
	}
	return false
}

// AgeAll increments every entry's age by one; called once per exchange
// round so stale information loses to fresh information in merges.
func (v *View) AgeAll() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// Merge folds incoming entries into the view: duplicates keep the lower
// age, then the freshest capacity entries survive. self is excluded so a
// node never gossips with itself. Merge does not allocate in steady
// state (the backing array is grown once and reused), which is what lets
// digests ride the engine's per-message hot path.
func (v *View) Merge(self string, incoming []Entry) {
	for _, e := range incoming {
		if e.Addr == self || e.Addr == "" {
			continue
		}
		h := addrHash(e.Addr)
		v.upsert(v.find(e.Addr, h), e.Addr, e.Age, h)
	}
	v.settle()
}

// upsert applies one incoming entry whose position the caller already
// looked up with find (i < 0: absent): a known address keeps the lower
// age, an unknown one is appended. The view may exceed its capacity
// until the next settle.
func (v *View) upsert(i int, addr string, age uint32, h uint64) {
	if i < 0 {
		v.entries = append(v.entries, Entry{Addr: addr, Age: age, hash: h})
	} else if age < v.entries[i].Age {
		v.entries[i].Age = age
	}
}

// settle restores the view's invariants after a run of upserts:
// freshest first, at most capacity entries.
func (v *View) settle() {
	// Tie-break equal ages by a hash salted with a per-merge nonce: any
	// fixed order (alphabetic, or even a fixed hash) would evict the same
	// addresses from every view under capacity pressure, starving those
	// nodes out of the overlay. The hash itself is computed once, when
	// the address enters the view — the comparator only salts it.
	v.nonce += 0x9e3779b97f4a7c15
	salt := v.nonce
	slices.SortFunc(v.entries, func(a, b Entry) int {
		if a.Age != b.Age {
			return cmp.Compare(a.Age, b.Age)
		}
		return cmp.Compare(a.hash^salt, b.hash^salt)
	})
	if len(v.entries) > v.capacity {
		tail := v.entries[v.capacity:]
		clear(tail) // release the evicted address strings
		v.entries = v.entries[:v.capacity]
	}
}

// find returns the position of addr (whose addrHash is h) in the view,
// or -1. Views are small (capacity is typically ≤ 32), so a linear scan
// beats a map — and unlike a map it costs no allocation; comparing the
// cached hash first means the scan touches address bytes only on a hit.
func (v *View) find(addr string, h uint64) int {
	for i := range v.entries {
		if v.entries[i].hash == h && v.entries[i].Addr == addr {
			return i
		}
	}
	return -1
}

// addrHash is FNV-1a over the address: the unbiased age tie-break of
// settle, the fast reject of find, and the sender key of the gossip
// sampler's insertion budgets.
func addrHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Sample returns a uniformly random entry's address; ok is false when the
// view is empty.
func (v *View) Sample(rng *xrand.Rand) (addr string, ok bool) {
	if len(v.entries) == 0 {
		return "", false
	}
	return v.entries[rng.Intn(len(v.entries))].Addr, true
}

// Digest returns up to k random entries (for piggybacking on protocol
// messages). The returned slice is freshly allocated; hot paths should
// use AppendDigest instead.
func (v *View) Digest(rng *xrand.Rand, k int) []Entry {
	n := len(v.entries)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := rng.SampleDistinct(n, k, -1)
	out := make([]Entry, 0, k)
	for _, i := range idx {
		out = append(out, v.entries[i])
	}
	return out
}

// AppendDigest appends up to k distinct random entries to addrs/ages and
// returns the extended slices. It does not allocate beyond growing the
// destination slices, so callers reusing buffers run alloc-free.
func (v *View) AppendDigest(addrs []string, ages []uint32, rng *xrand.Rand, k int) ([]string, []uint32) {
	n := len(v.entries)
	if k > n {
		k = n
	}
	if k <= 0 {
		return addrs, ages
	}
	if k == n {
		for i := range v.entries {
			addrs = append(addrs, v.entries[i].Addr)
			ages = append(ages, v.entries[i].Age)
		}
		return addrs, ages
	}
	if n <= 64 {
		// Rejection sampling over a bitmask: distinct without the map or
		// scratch slice xrand.SampleDistinct would allocate. Views are
		// capacity-bounded, so n ≤ 64 is the only case that matters.
		var picked uint64
		for c := 0; c < k; {
			i := rng.Intn(n)
			if picked&(1<<uint(i)) != 0 {
				continue
			}
			picked |= 1 << uint(i)
			addrs = append(addrs, v.entries[i].Addr)
			ages = append(ages, v.entries[i].Age)
			c++
		}
		return addrs, ages
	}
	for _, i := range rng.SampleDistinct(n, k, -1) {
		addrs = append(addrs, v.entries[i].Addr)
		ages = append(ages, v.entries[i].Age)
	}
	return addrs, ages
}

// Oldest returns the entry with the highest age (the CYCLON-style gossip
// partner choice: contacting the most stale reference is what detects
// dead peers fastest); ok is false when the view is empty.
func (v *View) Oldest() (e Entry, ok bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	oldest := v.entries[0]
	for _, cand := range v.entries[1:] {
		if cand.Age > oldest.Age {
			oldest = cand
		}
	}
	return oldest, true
}

// Add inserts an entry if the address is absent and capacity allows,
// reporting whether it was inserted. Unlike Merge it never evicts.
func (v *View) Add(e Entry) bool {
	if e.Addr == "" || v.Contains(e.Addr) || len(v.entries) >= v.capacity {
		return false
	}
	e.hash = addrHash(e.Addr)
	v.entries = append(v.entries, e)
	return true
}

// Replace swaps the entry holding oldAddr for e, reporting whether
// oldAddr was present. Used by shuffle-style exchanges that hand
// references over to the peer.
func (v *View) Replace(oldAddr string, e Entry) bool {
	for i, cur := range v.entries {
		if cur.Addr == oldAddr {
			e.hash = addrHash(e.Addr)
			v.entries[i] = e
			return true
		}
	}
	return false
}

// Remove deletes addr from the view if present, returning whether it was
// found — used when a peer is observed dead (connection refused).
func (v *View) Remove(addr string) bool {
	for i, e := range v.entries {
		if e.Addr == addr {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			return true
		}
	}
	return false
}
