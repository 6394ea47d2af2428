package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 57
		var ran atomic.Int64
		done := make([]atomic.Bool, n)
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			ran.Add(1)
			done[i].Store(true)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := ran.Load(); got != int64(n) {
			t.Fatalf("workers=%d: ran %d of %d tasks", workers, got, n)
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 1, 10, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("workers=1 must run in index order, got %v", order)
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// Many failing tasks: the reported error must be the lowest index,
	// regardless of scheduling.
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), 8, 64, func(_ context.Context, i int) error {
			if i%2 == 1 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 1 failed" {
			t.Fatalf("trial %d: err = %v, want task 1", trial, err)
		}
	}
}

func TestForEachErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ForEach(context.Background(), 2, 1000, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("error did not stop the pool early")
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 2, 1000, func(ctx context.Context, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 7} {
		out, err := Map(context.Background(), workers, 40, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(context.Background(), 4, 10, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("want error and nil results, got %v, %v", out, err)
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(0) != DefaultWorkers() || Normalize(-5) != DefaultWorkers() {
		t.Fatal("non-positive workers must normalize to DefaultWorkers")
	}
	if Normalize(3) != 3 {
		t.Fatal("positive workers must pass through")
	}
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be at least 1")
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	a := DeriveSeed(1, HashString("gromacs"), 42)
	b := DeriveSeed(1, HashString("gromacs"), 42)
	if a != b {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[uint64]string{}
	for _, base := range []uint64{0, 1, 99} {
		for _, name := range []string{"gromacs", "gamess", "mcf"} {
			for part := uint64(0); part < 4; part++ {
				key := fmt.Sprintf("%d/%s/%d", base, name, part)
				s := DeriveSeed(base, HashString(name), part)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision between %s and %s", prev, key)
				}
				seen[s] = key
			}
		}
	}
	// Order of parts must matter.
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatal("DeriveSeed must domain-separate part positions")
	}
}

func TestHashString(t *testing.T) {
	if HashString("a") == HashString("b") {
		t.Fatal("distinct strings hash equal")
	}
	if HashString("calculix") != HashString("calculix") {
		t.Fatal("hash not stable")
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	// One panicking task must fail the pool cleanly at any parallelism,
	// never crash the process, and report its index and stack.
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(context.Background(), workers, 20, func(_ context.Context, i int) error {
			if i == 7 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "boom" {
			t.Fatalf("workers=%d: recovered %d/%v", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		for _, want := range []string{"task 7 panicked", "boom"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: error %q missing %q", workers, err, want)
			}
		}
	}
}

func TestForEachLowestPanicIndexWins(t *testing.T) {
	// Every task panics; the reported index must be deterministic.
	err := ForEach(context.Background(), 8, 16, func(_ context.Context, i int) error {
		panic(i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("got %v, want panic from task 0", err)
	}
}

func TestMapPanicDiscardsResults(t *testing.T) {
	out, err := Map(context.Background(), 4, 8, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("midway")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("got (%v, %v), want discarded results and an error", out, err)
	}
}
