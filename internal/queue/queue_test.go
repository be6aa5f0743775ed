package queue

import (
	"fmt"
	"testing"
)

// checkStorage checks what a queue's backing array must look like after
// every operation: the queued items in order at buf[head:len], no other
// slot of the array holding a value, and an array at most twice peak, the
// deepest the queue has been.
func checkStorage[T comparable](buf []T, head int, want []T, peak int) error {
	if got := len(buf) - head; got != len(want) {
		return fmt.Errorf("%d items queued, want %d", got, len(want))
	}
	for i, v := range want {
		if buf[head+i] != v {
			return fmt.Errorf("item %d is %v, want %v", i, buf[head+i], v)
		}
	}
	var zero T
	for i, v := range buf[:cap(buf)] {
		if (i < head || i >= len(buf)) && v != zero {
			return fmt.Errorf("vacated slot %d of %d still holds %v (queued: [%d, %d))", i, cap(buf), v, head, len(buf))
		}
	}
	if cap(buf) > 2*peak {
		return fmt.Errorf("array of %d for a queue at most %d deep", cap(buf), peak)
	}
	return nil
}

// run plays ops against q and a slice reference: an odd byte pushes the
// next number, an even one pops. It checks every pop against the
// reference and the storage after every step.
func run(q *FIFO[int], ops []byte) error {
	var ref []int
	next, peak := 1, 0
	for step, op := range ops {
		if op&1 == 1 {
			q.Push(next)
			ref = append(ref, next)
			next++
			peak = max(peak, len(ref))
		} else {
			v, ok := q.Pop()
			switch {
			case len(ref) == 0 && ok:
				return fmt.Errorf("step %d: pop on an empty queue returned %d", step, v)
			case len(ref) > 0 && (!ok || v != ref[0]):
				return fmt.Errorf("step %d: pop = %d, %v; want %d", step, v, ok, ref[0])
			case len(ref) > 0:
				ref = ref[1:]
			}
		}
		if q.Len() != len(ref) {
			return fmt.Errorf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if err := checkStorage(q.buf, q.head, ref, peak); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
	}
	return nil
}

func FuzzQueue(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0})
	f.Add(steadyScript(9, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q FIFO[int]
		if err := run(&q, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// steadyScript fills a queue to depth, then pushes and pops one at a time
// rounds times, so it never drains and its head walks the whole array.
func steadyScript(depth, rounds int) []byte {
	var ops []byte
	for i := 0; i < depth; i++ {
		ops = append(ops, 1)
	}
	for i := 0; i < rounds; i++ {
		ops = append(ops, 1, 0)
	}
	return ops
}

func TestQueueScripts(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []byte
	}{
		{"empty pops", []byte{0, 0, 0}},
		{"depth one", steadyScript(0, 100)},
		{"steady, pop first", append(steadyScript(4, 0), bytesRepeat(200, 0, 1)...)},
		{"steady, push first", steadyScript(4, 200)},
		{"steady deep", steadyScript(1000, 3000)},
		{"grow then drain", append(bytesRepeat(300, 1), bytesRepeat(300, 0)...)},
		{"sawtooth", bytesRepeat(50, 1, 1, 1, 0, 0)},
	} {
		var q FIFO[int]
		if err := run(&q, tc.ops); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func bytesRepeat(n int, pattern ...byte) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, pattern...)
	}
	return ops
}

// A queue that drains goes back to its array's start: the next push lands
// in slot 0 of the same array.
func TestQueueRewindsOnDrain(t *testing.T) {
	var q FIFO[int]
	for i := 1; i <= 5; i++ {
		q.Push(i)
	}
	array := &q.buf[:1][0]
	for q.Len() > 0 {
		q.Pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue at head %d, length %d; want 0, 0", q.head, len(q.buf))
	}
	q.Push(6)
	if &q.buf[0] != array {
		t.Error("a push after a drain moved to another array")
	}
}

// At a steady depth, after the first pass has sized the array, pushes and
// pops allocate nothing, whether or not the queue ever drains. Each run
// walks the head across the array about four times, so an allocation once
// per pass over the array shows.
func TestQueueSteadyDepthAllocs(t *testing.T) {
	for _, depth := range []int{0, 1, 7, 100} {
		var q FIFO[*int]
		v := new(int)
		for i := 0; i < depth; i++ {
			q.Push(v)
		}
		laps := func() {
			for i := 0; i < 8*(depth+1); i++ {
				q.Push(v)
				q.Pop()
			}
		}
		laps()
		if n := testing.AllocsPerRun(100, laps); n != 0 {
			t.Errorf("depth %d: %d pushes and pops allocate %v times, want 0", depth, 8*(depth+1), n)
		}
	}
}

// A queue that deepens while it drains (nine pushes, eight pops) grows its
// array by at least half each time. Sliding only past half popped let it
// grow by factors near 1: 58 allocations to reach this depth.
func TestQueueGrowsGeometrically(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	const rounds = 10000
	allocs := testing.AllocsPerRun(1, func() {
		q = FIFO[*int]{}
		for i := 0; i < rounds; i++ {
			for j := 0; j < 9; j++ {
				q.Push(v)
			}
			for j := 0; j < 8; j++ {
				q.Pop()
			}
		}
	})
	// Growth by half from 2 slots to 2·10000 takes log1.5(10000) ≈ 23.
	if allocs > 26 {
		t.Errorf("deepening to %d took %v allocations, want at most 26", rounds, allocs)
	}
}

// leakySlide is the slide the simulator's node queue had: append the live
// part onto the array's start, which leaves copies of queued pointers in
// the slots past the new length.
type leakySlide struct {
	buf  []*int
	head int
}

func (q *leakySlide) push(v *int) { q.buf = append(q.buf, v) }

func (q *leakySlide) pop() {
	q.buf[q.head] = nil
	q.head++
	if q.head > 1024 && q.head*2 > len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
}

// A queue that never drains slides its live part down; the slots the slide
// leaves must not keep the items alive. The same script run through the
// simulator's former slide finds a vacated slot still pointing at a task.
func TestQueueSlideClearsVacatedSlots(t *testing.T) {
	items := make([]*int, 3000)
	for i := range items {
		items[i] = new(int)
	}
	const depth = 600
	var q FIFO[*int]
	var leaky leakySlide
	var ref []*int
	leaked := false
	for i, v := range items {
		q.Push(v)
		leaky.push(v)
		ref = append(ref, v)
		if i >= depth {
			q.Pop()
			leaky.pop()
			ref = ref[1:]
		}
		if err := checkStorage(q.buf, q.head, ref, depth+1); err != nil {
			t.Fatalf("after %d pushes: %v", i+1, err)
		}
		if checkStorage(leaky.buf, leaky.head, ref, len(items)) != nil {
			leaked = true
		}
	}
	if !leaked {
		t.Error("the former slide passed the vacated-slot check; the script no longer exercises it")
	}
}
