package main

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// draws runs a closed loop of n queries and returns what each client drew.
func draws(clients int, n, seed int64) [][]int {
	var mu sync.Mutex
	out := make([][]int, clients)
	closedLoop(clients, 0, n, seed, func(c int, r *rand.Rand) {
		v := r.Intn(1 << 20)
		mu.Lock()
		out[c] = append(out[c], v)
		mu.Unlock()
	})
	return out
}

// A closed loop bounded by a count runs exactly that many queries, and each
// client's draws depend only on the seed, so a seed always offers the same
// queries.
func TestClosedLoopIsSeededAndBounded(t *testing.T) {
	a, b := draws(4, 400, 7), draws(4, 400, 7)
	total := 0
	for c := range a {
		total += len(a[c])
		// Clients race for the shared count, so compare the common prefix.
		k := min(len(a[c]), len(b[c]))
		if !slices.Equal(a[c][:k], b[c][:k]) {
			t.Fatalf("client %d drew differently from the same seed", c)
		}
	}
	if total != 400 {
		t.Fatalf("ran %d queries, want 400", total)
	}
	if other := draws(1, 10, 8); slices.Equal(other[0], a[0][:min(10, len(a[0]))]) {
		t.Fatalf("seeds 7 and 8 drew the same queries")
	}
}
