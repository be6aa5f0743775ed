// Package queue holds the one first-in-first-out buffer both control planes
// keep their queues in: the simulator's per-node task and I/O load queues
// and, under a mutex, the live service's send queues and worker lanes.
package queue

// FIFO is an unbounded first-in-first-out queue. It is not safe for
// concurrent use; a caller that shares one guards it with its own lock.
//
// It keeps a head index into one backing array: Pop zeroes the slot it
// empties, so the array never pins what left, and a queue that drains goes
// back to the array's start, so a queue that keeps emptying reuses its
// array instead of walking off it (a `q = q[1:]` window reallocates on
// every push at depth one). A full array at least a quarter popped slides
// its live part down and clears the slots the slide leaves, which costs at
// most three copies a push; a full array less popped is replaced by one
// twice the depth the push reaches, so it grows by at least half. The array
// is therefore never more than twice the deepest the queue has been, and at
// a steady depth push and pop allocate nothing.
//
// The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int // buf[head:] is queued
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Cap returns the length of the backing array.
func (q *FIFO[T]) Cap() int { return cap(q.buf) }

// Push queues v.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) {
		q.makeRoom()
	}
	q.buf = append(q.buf, v)
}

// makeRoom frees at least one slot at the end of a full array.
func (q *FIFO[T]) makeRoom() {
	if q.head > 0 && 4*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
		return
	}
	live := q.Len()
	grown := make([]T, live, 2*(live+1))
	copy(grown, q.buf[q.head:])
	q.buf, q.head = grown, 0
}

// Pop removes and returns the oldest item; ok is false when the queue is
// empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}
