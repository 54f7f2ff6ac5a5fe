package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// freshDistances is the uncached all-pairs matrix: one BFS per vertex.
func freshDistances(g *Graph) [][]int {
	out := make([][]int, g.NumVertices())
	for v := range out {
		out[v] = g.Distances(v)
	}
	return out
}

func TestAllPairsDistancesMatchesBFS(t *testing.T) {
	for _, g := range []*Graph{
		Line(6), Ring(7), Grid(3, 4), Star(6), New(3),
		RandomConnected(30, 0.2, 4, rand.New(rand.NewSource(5))),
	} {
		if got, want := g.AllPairsDistances(), freshDistances(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: AllPairsDistances = %v, want %v", g, got, want)
		}
		// A second call must agree too.
		if got, want := g.AllPairsDistances(), freshDistances(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: repeated AllPairsDistances = %v, want %v", g, got, want)
		}
	}
}

func TestAllPairsDistancesSeesAddEdge(t *testing.T) {
	g := Line(6)
	before := g.AllPairsDistances()
	if before[0][5] != 5 {
		t.Fatalf("line(6) distance 0-5 = %d, want 5", before[0][5])
	}
	g.MustAddEdge(0, 5)
	after := g.AllPairsDistances()
	if !reflect.DeepEqual(after, freshDistances(g)) {
		t.Fatalf("after AddEdge: %v, want %v", after, freshDistances(g))
	}
	if after[0][5] != 1 {
		t.Fatalf("after AddEdge distance 0-5 = %d, want 1", after[0][5])
	}
	// A duplicate edge changes nothing.
	g.MustAddEdge(5, 0)
	if !reflect.DeepEqual(g.AllPairsDistances(), after) {
		t.Fatal("duplicate AddEdge changed the distances")
	}
	// A disconnected graph gains reachability.
	h := New(4)
	h.MustAddEdge(0, 1)
	if d := h.AllPairsDistances(); d[0][3] != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d[0][3])
	}
	h.MustAddEdge(1, 3)
	if !reflect.DeepEqual(h.AllPairsDistances(), freshDistances(h)) {
		t.Fatal("after AddEdge on a disconnected graph: stale distances")
	}
}

// TestAllPairsDistancesConcurrent: routers on many goroutines share one
// device's coupling map, so the first, lazily filled call must be safe
// from all of them at once.
func TestAllPairsDistancesConcurrent(t *testing.T) {
	g := RandomConnected(40, 0.15, 4, rand.New(rand.NewSource(8)))
	want := freshDistances(g)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.AllPairsDistances(); !reflect.DeepEqual(got, want) {
				t.Error("concurrent AllPairsDistances disagrees with BFS")
			}
		}()
	}
	wg.Wait()
}
