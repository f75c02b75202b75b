package outq_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/outq"
)

func TestBlockWaitsForSpaceAndCtx(t *testing.T) {
	q := outq.New[int](1, network.PolicyBlock)
	ctx := context.Background()
	if err := q.Enqueue(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Blocked enqueue is released by a dequeue.
	released := make(chan error, 1)
	go func() { released <- q.Enqueue(ctx, 2) }()
	select {
	case err := <-released:
		t.Fatalf("enqueue on a full queue returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	stop := make(chan struct{})
	if got, ok := q.Dequeue(stop); !ok || got != 1 {
		t.Fatalf("dequeue = %d/%v", got, ok)
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked enqueue not released by dequeue")
	}

	// Blocked enqueue respects context cancellation.
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := q.Enqueue(cctx, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled enqueue returned %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled enqueue blocked past its deadline")
	}

	// Dequeue hands out what is queued, then reports the stop.
	if got, ok := q.Dequeue(stop); !ok || got != 2 {
		t.Fatalf("dequeue = %d/%v, want 2", got, ok)
	}
	close(stop)
	if _, ok := q.Dequeue(stop); ok {
		t.Fatal("dequeue on an empty queue ignored the stop")
	}
}
