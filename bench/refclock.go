package main

import (
	"runtime"
	"sync"
	"time"
)

// The hosts this benchmark runs on change clock speed: for seconds at a time
// the cores run about 27 % faster or slower (a fixed spin loop, the simulator,
// the ray-caster and the codec all show the same factor). Wall-clock timings
// of identical work therefore spread by a fifth between runs — wider than any
// regression bound worth having. refClock counts core clock cycles instead: a
// goroutine pinned to a thread times a fixed dependent multiply-add chain in
// thread CPU time every refPeriod, and the clock advances by wall time ×
// (refNominalNS ÷ the chain's current cost). Every duration the benchmark
// reports is read from this clock, so it is a time "at reference speed":
// equal to wall time while the chain costs refNominalNS, which is what it
// costs in the slower, more common mode of the machine the first numbers were
// recorded on. The chain touches no memory, so what the workload does to the
// caches does not move it, and it is priced in thread CPU time, so a workload
// that keeps every core busy does not slow the clock by preempting it. It
// costs 2.5 % of one core. The mean factor is printed with every run.
const (
	refPeriod     = 20 * time.Millisecond
	refIterations = 400_000
	refNominalNS  = 525_000
	refSmoothing  = 5 // the factor is the median of this many chain timings
)

var refSink uint64

// refKernel is the fixed work: a chain of multiply-adds, each waiting for the
// last. It returns the thread CPU nanoseconds it took.
func refKernel() int64 {
	start := threadCPU()
	x := refSink | 1
	for i := 0; i < refIterations; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink = x
	return threadCPU() - start
}

type refClock struct {
	mu     sync.Mutex
	acc    float64 // reference nanoseconds elapsed up to last
	last   time.Time
	factor float64
	recent []float64 // the latest kernel timings

	stop, done chan struct{}
}

// startRefClock calibrates once and starts the sampling goroutine.
func startRefClock() *refClock {
	c := &refClock{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < refSmoothing; i++ {
			c.recent = append(c.recent, float64(refKernel()))
		}
		c.last, c.factor = time.Now(), refNominalNS/median(append([]float64(nil), c.recent...))
		close(ready)
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			cost := float64(refKernel())
			c.mu.Lock()
			c.recent[i%refSmoothing] = cost
			now := time.Now()
			c.acc += float64(now.Sub(c.last)) * c.factor
			c.last, c.factor = now, refNominalNS/median(append([]float64(nil), c.recent...))
			c.mu.Unlock()
		}
	}()
	<-ready
	return c
}

// now returns reference nanoseconds since the clock started.
func (c *refClock) now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acc + float64(time.Since(c.last))*c.factor
}

// speed returns the current factor: above 1 while the machine is faster than
// the reference.
func (c *refClock) speed() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.factor
}

func (c *refClock) close() {
	close(c.stop)
	<-c.done
}
