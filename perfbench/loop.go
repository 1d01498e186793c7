package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs clients goroutines; each sends its next query only after
// the previous one returned. Clients stop once dur has elapsed (dur > 0) or
// n queries have been started in total (n > 0). Client i draws from its own
// rand seeded by (seed, i), so a seed always yields the same query sequence
// per client. It returns the time until the last client finished.
func closedLoop(clients int, dur time.Duration, n int64, seed int64, one func(client int, r *rand.Rand)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(c)*7919))
			for {
				if dur > 0 && !time.Now().Before(deadline) {
					return
				}
				if n > 0 && started.Add(1) > n {
					return
				}
				one(c, r)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}
