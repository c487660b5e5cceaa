package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestCompleteBasics(t *testing.T) {
	g, err := NewComplete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 5 {
		t.Fatalf("size = %d", g.Size())
	}
	if g.Name() != "complete" {
		t.Fatalf("name = %q", g.Name())
	}
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", i, g.Degree(i))
		}
	}
}

func TestCompleteNeighborEnumeration(t *testing.T) {
	g, _ := NewComplete(4)
	// Node 2's neighbors must be {0, 1, 3} in order.
	want := []int{0, 1, 3}
	for k, w := range want {
		if got := g.Neighbor(2, k); got != w {
			t.Fatalf("Neighbor(2, %d) = %d, want %d", k, got, w)
		}
	}
}

func TestCompleteRandomNeighborNeverSelf(t *testing.T) {
	g, _ := NewComplete(10)
	rng := xrand.New(1)
	for trial := 0; trial < 10000; trial++ {
		i := rng.Intn(10)
		j, ok := g.RandomNeighbor(i, rng)
		if !ok {
			t.Fatal("complete graph reported isolated node")
		}
		if j == i || j < 0 || j >= 10 {
			t.Fatalf("RandomNeighbor(%d) = %d", i, j)
		}
	}
}

func TestCompleteRandomNeighborUniform(t *testing.T) {
	g, _ := NewComplete(5)
	rng := xrand.New(2)
	counts := make([]int, 5)
	const draws = 50000
	for trial := 0; trial < draws; trial++ {
		j, _ := g.RandomNeighbor(2, rng)
		counts[j]++
	}
	if counts[2] != 0 {
		t.Fatalf("self selected %d times", counts[2])
	}
	want := float64(draws) / 4
	for j, c := range counts {
		if j == 2 {
			continue
		}
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("neighbor %d drawn %d times, want ≈ %.0f", j, c, want)
		}
	}
}

func TestCompleteRejectsTiny(t *testing.T) {
	if _, err := NewComplete(1); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("err = %v, want ErrTooFewNodes", err)
	}
}

func TestKRegularDegrees(t *testing.T) {
	rng := xrand.New(3)
	for _, tc := range []struct{ n, k int }{{10, 3}, {100, 20}, {1000, 4}, {50, 7}} {
		if tc.n*tc.k%2 != 0 {
			continue
		}
		g, err := NewKRegular(tc.n, tc.k, rng)
		if err != nil {
			t.Fatalf("NewKRegular(%d, %d): %v", tc.n, tc.k, err)
		}
		for i := 0; i < tc.n; i++ {
			if g.Degree(i) != tc.k {
				t.Fatalf("n=%d k=%d: degree(%d) = %d", tc.n, tc.k, i, g.Degree(i))
			}
		}
	}
}

func TestKRegularSimpleGraph(t *testing.T) {
	rng := xrand.New(4)
	g, err := NewKRegular(200, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Size(); i++ {
		seen := make(map[int]bool)
		for k := 0; k < g.Degree(i); k++ {
			j := g.Neighbor(i, k)
			if j == i {
				t.Fatalf("self-loop at node %d", i)
			}
			if seen[j] {
				t.Fatalf("parallel edge %d-%d", i, j)
			}
			seen[j] = true
		}
	}
}

func TestKRegularSymmetric(t *testing.T) {
	rng := xrand.New(5)
	g, err := NewKRegular(100, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	adj := make(map[[2]int]bool)
	for i := 0; i < g.Size(); i++ {
		for k := 0; k < g.Degree(i); k++ {
			adj[[2]int{i, g.Neighbor(i, k)}] = true
		}
	}
	for e := range adj {
		if !adj[[2]int{e[1], e[0]}] {
			t.Fatalf("edge %v not symmetric", e)
		}
	}
}

func TestKRegularConnectedWHP(t *testing.T) {
	// Random k-regular graphs with k ≥ 3 are connected w.h.p.; with
	// k = 20 a disconnected draw would indicate a generator bug.
	rng := xrand.New(6)
	for trial := 0; trial < 5; trial++ {
		g, err := NewKRegular(500, 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !IsConnected(g) {
			t.Fatal("20-regular random graph disconnected")
		}
	}
}

func TestKRegularValidation(t *testing.T) {
	rng := xrand.New(7)
	if _, err := NewKRegular(5, 3, rng); err == nil {
		t.Error("odd n·k accepted")
	}
	if _, err := NewKRegular(5, 5, rng); err == nil {
		t.Error("k ≥ n accepted")
	}
	if _, err := NewKRegular(1, 1, rng); !errors.Is(err, ErrTooFewNodes) {
		t.Errorf("err = %v, want ErrTooFewNodes", err)
	}
}

func TestRandomViewProperties(t *testing.T) {
	rng := xrand.New(8)
	g, err := NewRandomView(300, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Size(); i++ {
		if g.Degree(i) != 20 {
			t.Fatalf("view size at %d = %d", i, g.Degree(i))
		}
		seen := make(map[int]bool)
		for k := 0; k < 20; k++ {
			j := g.Neighbor(i, k)
			if j == i {
				t.Fatalf("node %d in its own view", i)
			}
			if seen[j] {
				t.Fatalf("duplicate view entry at node %d", i)
			}
			seen[j] = true
		}
	}
}

func TestRandomViewValidation(t *testing.T) {
	rng := xrand.New(9)
	if _, err := NewRandomView(10, 10, rng); err == nil {
		t.Error("k = n accepted")
	}
	if _, err := NewRandomView(1, 1, rng); err == nil {
		t.Error("n = 1 accepted")
	}
}

func TestRingStructure(t *testing.T) {
	g, err := NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if g.Degree(i) != 2 {
			t.Fatalf("ring degree(%d) = %d", i, g.Degree(i))
		}
	}
	if !IsConnected(g) {
		t.Fatal("ring disconnected")
	}
	if _, err := NewRing(2); err == nil {
		t.Error("2-node ring accepted")
	}
}

func TestWattsStrogatzDegreesPreserved(t *testing.T) {
	rng := xrand.New(10)
	g, err := NewWattsStrogatz(200, 6, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Rewiring preserves the edge count (each edge moves, never
	// disappears, except rare saturation in small graphs).
	totalDeg := 0
	for i := 0; i < g.Size(); i++ {
		totalDeg += g.Degree(i)
	}
	if want := 200 * 6; totalDeg != want {
		t.Fatalf("total degree %d, want %d", totalDeg, want)
	}
	if !IsConnected(g) {
		t.Fatal("small-world graph disconnected at beta=0.1")
	}
}

func TestWattsStrogatzBetaZeroIsLattice(t *testing.T) {
	rng := xrand.New(11)
	g, err := NewWattsStrogatz(20, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// beta = 0: every node keeps exactly its 4 lattice neighbors.
	for i := 0; i < 20; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("lattice degree(%d) = %d", i, g.Degree(i))
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	rng := xrand.New(12)
	if _, err := NewWattsStrogatz(10, 3, 0.1, rng); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := NewWattsStrogatz(10, 4, 1.5, rng); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := xrand.New(13)
	g, err := NewBarabasiAlbert(500, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("scale-free graph disconnected")
	}
	// Minimum degree is m (every node attaches m edges); hubs exist.
	maxDeg := 0
	for i := 0; i < g.Size(); i++ {
		d := g.Degree(i)
		if d < 3 {
			t.Fatalf("degree(%d) = %d < m", i, d)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Errorf("max degree %d; preferential attachment should create hubs", maxDeg)
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	rng := xrand.New(14)
	if _, err := NewBarabasiAlbert(3, 3, rng); err == nil {
		t.Error("n ≤ m accepted")
	}
	if _, err := NewBarabasiAlbert(10, 0, rng); err == nil {
		t.Error("m = 0 accepted")
	}
}

func TestAdjacencyRandomNeighborIsolated(t *testing.T) {
	g := NewAdjacency("test", [][]int32{{}, {0}})
	rng := xrand.New(15)
	if _, ok := g.RandomNeighbor(0, rng); ok {
		t.Fatal("isolated node returned a neighbor")
	}
	if j, ok := g.RandomNeighbor(1, rng); !ok || j != 0 {
		t.Fatalf("RandomNeighbor(1) = %d, %v", j, ok)
	}
}

func TestIsConnectedDetectsSplit(t *testing.T) {
	// Two disjoint edges: 0-1, 2-3.
	g := NewAdjacency("split", [][]int32{{1}, {0}, {3}, {2}})
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestKRegularDeterministicForSeed(t *testing.T) {
	build := func(seed uint64) [][]int32 {
		g, err := NewKRegular(60, 4, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int32, g.Size())
		for i := range out {
			out[i] = append([]int32(nil), g.Neighbors(i)...)
		}
		return out
	}
	a, b := build(99), build(99)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("node %d degree differs across identical seeds", i)
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("node %d neighbor %d differs across identical seeds", i, k)
			}
		}
	}
}

func TestRandomNeighborInRangeQuick(t *testing.T) {
	rng := xrand.New(16)
	g, err := NewKRegular(40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	check := func(iRaw uint8) bool {
		i := int(iRaw) % 40
		j, ok := g.RandomNeighbor(i, rng)
		return ok && j >= 0 && j < 40 && j != i
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTopologyAllKinds(t *testing.T) {
	rng := xrand.New(1)
	for _, k := range Kinds() {
		g, err := Build(k, 100, 10, rng)
		if err != nil {
			t.Errorf("Build(%s): %v", k, err)
			continue
		}
		if g.Size() != 100 {
			t.Errorf("%s: size = %d", k, g.Size())
		}
	}
	if _, err := Build("bogus", 100, 10, rng); err == nil {
		t.Error("unknown topology accepted")
	}
}
