package service

import "sync"

// fifo is an unbounded first-in-first-out queue between goroutines: push
// never blocks, pop waits for an item. It is the head's per-worker send
// queue and each of a worker's two task lanes, whose usual depth is zero or
// one — so it keeps a head index into one backing array and goes back to the
// array's start whenever it drains, and a steady push/pop makes no garbage
// (a `q = q[1:]` window walks off its array and reallocates on every push).
type fifo[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []T
	head   int // buf[head:] is queued
	closed bool
}

func newFifo[T any]() *fifo[T] {
	q := &fifo[T]{}
	q.cond.L = &q.mu
	return q
}

// push queues v and reports whether the queue took it; a closed one does not.
func (q *fifo[T]) push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// A queue that never drains: slide down over the popped half
		// rather than grow behind a head that only advances.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
	q.cond.Signal()
	return true
}

// pop returns the oldest item, waiting for one. After close it hands out
// what is still queued, then reports false.
func (q *fifo[T]) pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.buf) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.buf) {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero // the array must not pin what left
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}

// close refuses further pushes and wakes every waiting pop.
func (q *fifo[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
