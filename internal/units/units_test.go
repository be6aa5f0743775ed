package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512 * MB, "512MB"},
		{2 * GB, "2GB"},
		{1 * TB, "1TB"},
		{4 * KB, "4KB"},
		{100, "100B"},
		{3 * GB / 2, "1536MB"},
		{3*GB/2 + 1, "1.50GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Second)
	if !t0.Before(t1) || !t1.After(t0) {
		t.Error("Before/After inconsistent")
	}
	if d := t1.Sub(t0); d != 3*Second {
		t.Errorf("Sub = %v, want 3s", d)
	}
	if s := t1.Seconds(); s != 3 {
		t.Errorf("Seconds = %v, want 3", s)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if ms := d.Milliseconds(); ms != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", ms)
	}
	if us := d.Microseconds(); us != 1500 {
		t.Errorf("Microseconds = %v, want 1500", us)
	}
	if d.Std() != 1500*time.Microsecond {
		t.Errorf("Std = %v", d.Std())
	}
}

func TestRateTimeFor(t *testing.T) {
	r := 100 * MBps
	// 200MB at 100MB/s = 2s.
	if d := r.TimeFor(200 * MB); d != 2*Second {
		t.Errorf("TimeFor = %v, want 2s", d)
	}
	if d := Rate(0).TimeFor(GB); d != 0 {
		t.Errorf("zero rate TimeFor = %v, want 0", d)
	}
	if d := r.TimeFor(0); d != 0 {
		t.Errorf("zero size TimeFor = %v, want 0", d)
	}
	if d := r.TimeFor(-5); d != 0 {
		t.Errorf("negative size TimeFor = %v, want 0", d)
	}
}

func TestRateString(t *testing.T) {
	if got := (100 * MBps).String(); got != "100.0MB/s" {
		t.Errorf("got %q", got)
	}
	if got := (2 * GBps).String(); got != "2.0GB/s" {
		t.Errorf("got %q", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{10, 5, 2},
		{11, 5, 3},
		{1, 5, 1},
		{0, 5, 0},
		{-3, 5, 0},
		{int64(2 * GB), int64(512 * MB), 4},
		{int64(2*GB) + 1, int64(512 * MB), 5},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

// Property: CeilDiv(a,b) is the smallest k with k*b >= a, for positive a, b.
func TestQuickCeilDiv(t *testing.T) {
	f := func(a, b uint16) bool {
		if b == 0 {
			return true
		}
		k := CeilDiv(int64(a), int64(b))
		if a == 0 {
			return k == 0
		}
		return k*int64(b) >= int64(a) && (k-1)*int64(b) < int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TimeFor is monotonic in size for a fixed positive rate.
func TestQuickRateMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		r := 50 * MBps
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		return r.TimeFor(x) <= r.TimeFor(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
