package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapContextDrainsInFlightWorkers verifies the cancellation
// contract: once ctx is done, no new index starts, but every fn call
// already in flight runs to completion before MapContext returns — so
// no worker can still be writing into the results slice afterwards —
// and the returned error joins organic failures with the per-index
// cancellation errors.
func TestMapContextDrainsInFlightWorkers(t *testing.T) {
	const n, workers = 64, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// In-flight workers block on release, which opens only once the
	// cancellation has happened — from a helper goroutine, because the
	// test goroutine is inside MapContext at that point.
	release := make(chan struct{})
	go func() {
		<-ctx.Done()
		close(release)
	}()

	var started, finished atomic.Int32
	results, err := MapContext(ctx, n, workers, func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if i == 0 {
			cancel() // an organic failure cancels the rest of the sweep
			return 0, errors.New("boom")
		}
		<-release
		time.Sleep(5 * time.Millisecond) // outlast the cancellation
		return i * i, nil
	})

	// Drain: MapContext must not return while any fn is still running.
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("MapContext returned with %d of %d started calls unfinished", s-f, s)
	}
	// No new work after cancellation: only the calls already in flight
	// (at most one per worker) ever started.
	if s := started.Load(); s > workers {
		t.Fatalf("%d calls started, want at most the %d in flight at cancellation", s, workers)
	}
	if err == nil {
		t.Fatal("MapContext returned nil error despite a failing index and cancellation")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("joined error lost the organic failure: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("joined error lost the cancellation: %v", err)
	}
	// Completed indices keep their results; skipped ones hold zeros.
	for i := 1; i < n; i++ {
		if results[i] != 0 && results[i] != i*i {
			t.Errorf("results[%d] = %d, want 0 (skipped) or %d", i, results[i], i*i)
		}
	}
}

// TestMapContextSerialHonorsCancellation covers the workers<=1 fast
// path: indices after the cancellation record ctx.Err() without fn
// running.
func TestMapContextSerialHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int
	results, err := MapContext(ctx, 10, 1, func(i int) (int, error) {
		calls++
		if i == 2 {
			cancel()
		}
		return i + 1, nil
	})
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3 (indices 0-2)", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the join", err)
	}
	for i, r := range results {
		want := 0
		if i <= 2 {
			want = i + 1
		}
		if r != want {
			t.Errorf("results[%d] = %d, want %d", i, r, want)
		}
	}
}

// TestMapChunkedIdenticalAcrossChunkAndWorkers is the batching
// contract: chunk size and worker count change scheduling, never
// outputs, and the shared cursor hands every index to exactly one
// worker.
func TestMapChunkedIdenticalAcrossChunkAndWorkers(t *testing.T) {
	const n = 101
	fn := func(i int) (int, error) { return i*i + 3, nil }
	want, err := Map(n, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		for _, chunk := range []int{0, 1, 5, 7, 64, 1000} {
			var calls [n]atomic.Int32
			got, err := MapChunkedContext(context.Background(), n, workers, chunk, func(i int) (int, error) {
				calls[i].Add(1)
				return fn(i)
			})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d chunk=%d diverged from serial output", workers, chunk)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d ran %d times, want exactly once", workers, chunk, i, c)
				}
			}
		}
	}
}

// TestCounterClaimerDisjointCover hammers the shared claim cursor from
// many goroutines with a chunk that does not divide n: the ranges it
// hands out must be disjoint, in-bounds, and cover [0, n) exactly.
func TestCounterClaimerDisjointCover(t *testing.T) {
	const n, chunk, workers = 1000, 7, 8
	var owner [n]atomic.Int32
	var outOfBounds atomic.Int32
	_, err := MapChunkedContext(context.Background(), n, workers, chunk, func(i int) (struct{}, error) {
		if i < 0 || i >= n {
			outOfBounds.Add(1)
			return struct{}{}, nil
		}
		owner[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := outOfBounds.Load(); c != 0 {
		t.Fatalf("%d claims landed out of bounds", c)
	}
	for i := range owner {
		if c := owner[i].Load(); c != 1 {
			t.Fatalf("index %d claimed %d times, want exactly once", i, c)
		}
	}
}
