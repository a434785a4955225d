package core

import "sync"

// FanOut runs fn(i) for every i in [0, n) on at most pool concurrent
// goroutines and blocks until all complete. It is the shared element
// fan-out of the batch and gradient execution paths (local runners and
// backend executors alike): a K-element batch costs at most pool live
// executions — and their amplitude arenas — instead of K. n <= 0 returns
// immediately; a single element runs on the caller's goroutine; pool is
// clamped to [1, n].
func FanOut(n, pool int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	if pool > n {
		pool = n
	}
	if pool < 1 {
		pool = 1
	}
	sem := make(chan struct{}, pool)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}
