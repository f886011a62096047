package optimizer

import "sync"

// ParallelFor runs fn(0..n-1) on a bounded pool of workers and returns the
// lowest-indexed error (running serially when workers <= 1). fn must only
// write to index-private state. The simulator's multi-seed campaigns use it,
// collecting results by index so outcomes never depend on scheduling.
func ParallelFor(workers, n int, fn func(i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
