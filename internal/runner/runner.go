// Package runner is the deterministic parallel execution engine behind
// every campaign layer of the repository: dataset extraction, the
// static-sweep oracle, closed-loop controller evaluation and GBT split
// search all fan their independent tasks across a bounded worker pool.
//
// The engine guarantees that parallel execution is bit-identical to
// sequential execution:
//
//   - Tasks are identified by index. Results are written into the slot of
//     their index, so the assembled output is in canonical task order no
//     matter which worker finished first.
//   - Per-task randomness is derived from the campaign seed and stable
//     task coordinates (workload name, frequency, walk index) via
//     DeriveSeed, never from worker identity or scheduling order.
//   - On failure, the error of the lowest-index failing task is returned,
//     so the reported error does not depend on goroutine scheduling.
//
// Cancellation is cooperative: the first task error (or cancellation of
// the caller's context) stops idle workers from claiming further tasks;
// tasks already in flight run to completion.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default parallelism: one worker per logical
// CPU. This is what every campaign layer uses when its Workers knob is
// left at zero.
func DefaultWorkers() int {
	return runtime.NumCPU()
}

// Normalize maps a user-supplied worker count onto a usable one: values
// below 1 become DefaultWorkers().
func Normalize(workers int) int {
	if workers < 1 {
		return DefaultWorkers()
	}
	return workers
}

// PanicError is the error a recovered task panic is converted into. A
// panicking task no longer kills the whole process (and with it every
// in-flight campaign run): the pool fails cleanly with this error, which
// records which task blew up and where.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the value passed to panic().
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// runTask executes one task, converting a panic into *PanicError.
func runTask(ctx context.Context, i int, task func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return task(ctx, i)
}

// indexedError remembers the lowest task index that failed, so the
// returned error is deterministic under any scheduling.
type indexedError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (e *indexedError) record(i int, err error) {
	e.mu.Lock()
	if e.err == nil || i < e.idx {
		e.idx, e.err = i, err
	}
	e.mu.Unlock()
}

func (e *indexedError) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// ForEach runs task(ctx, i) for every i in [0, n) on a pool of at most
// workers goroutines (Normalize'd; capped at n). The first task error
// cancels the pool and is returned; when several tasks fail, the error of
// the lowest task index wins. A panicking task does not crash the
// process: the panic is recovered into a *PanicError carrying the task
// index and stack, and fails the pool like any other task error. If the
// caller's context is cancelled before all tasks ran, the context error
// is returned (unless a task failed first). With workers == 1 the tasks
// run on a single goroutine in index order, which is the sequential
// reference the parallel modes are measured against.
func ForEach(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next  atomic.Int64
		first indexedError
		wg    sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runTask(ctx, i, task); err != nil {
					first.record(i, err)
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := first.get(); err != nil {
		return err
	}
	if int(next.Load()) < n {
		// Workers stopped early without a task error: the caller's
		// context was cancelled.
		return context.Cause(ctx)
	}
	return nil
}

// Map runs task(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the results in task-index order. Error semantics
// match ForEach; on error the partial results are discarded.
func Map[T any](ctx context.Context, workers, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := task(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mix64 is the splitmix64 finalizer, a strong 64-bit mixing function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed derives an independent per-task seed from a campaign base
// seed and the task's stable coordinates (e.g. the hash of the workload
// name, the frequency bits, the walk index). The derivation depends only
// on the values, never on execution order, so a campaign produces the
// same per-task seeds at any parallelism. Each part is domain-separated
// by its position to keep DeriveSeed(s, a, b) != DeriveSeed(s, b, a).
func DeriveSeed(base uint64, parts ...uint64) uint64 {
	h := mix64(base + 0x9e3779b97f4a7c15)
	for i, p := range parts {
		h = mix64(h ^ mix64(p+uint64(i+1)*0x9e3779b97f4a7c15))
	}
	return h
}

// HashString returns the FNV-1a hash of s, for use as a DeriveSeed part.
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
