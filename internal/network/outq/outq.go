// Package outq is a bounded FIFO queue with one consumer and any
// number of producers. No transport uses it: each link's send
// buffer is its relink ack window. It stays only because the
// benchmark's microbenchmarks time one Enqueue/Dequeue cycle
// (outq.cycle_ns).
package outq

import (
	"context"

	"thetacrypt/internal/network"
)

// Queue is a bounded FIFO of T.
type Queue[T any] struct{ ch chan T }

// New creates a queue with the given capacity (minimum 1). Every queue
// blocks when full; the policy argument is ignored.
func New[T any](capacity int, _ network.QueuePolicy) *Queue[T] {
	return &Queue[T]{ch: make(chan T, max(capacity, 1))}
}

// Enqueue admits one item, waiting for space as long as ctx allows.
func (q *Queue[T]) Enqueue(ctx context.Context, item T) error {
	select {
	case q.ch <- item:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Dequeue blocks until an item is available or stop closes; ok is
// false on stop. Only one goroutine may consume.
func (q *Queue[T]) Dequeue(stop <-chan struct{}) (item T, ok bool) {
	select {
	case item = <-q.ch:
		return item, true
	case <-stop:
		return item, false
	}
}
