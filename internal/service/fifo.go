package service

import (
	"sync"

	"vizsched/internal/queue"
)

// fifo is an unbounded first-in-first-out queue between goroutines: push
// never blocks, pop waits for an item. It is the head's per-worker send
// queue and each of a worker's two task lanes, whose usual depth is zero or
// one. It adds a lock, a wake-up and close to queue.FIFO, which goes back to
// its array's start whenever it drains, so a steady push/pop makes no
// garbage.
type fifo[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    queue.FIFO[T]
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
	q.buf.Push(v)
	q.cond.Signal()
	return true
}

// pop returns the oldest item, waiting for one. After close it hands out
// what is still queued, then reports false.
func (q *fifo[T]) pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.buf.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.buf.Pop()
}

// close refuses further pushes and wakes every waiting pop.
func (q *fifo[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
