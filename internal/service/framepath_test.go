package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vizsched/internal/compositing"
	"vizsched/internal/core"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// totalAlloc runs fn and returns the bytes the process allocated meanwhile.
func totalAlloc(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// Sizes come off the wire too: a non-positive or absurd one is an error
// before it reaches an allocation, never a panic.
func TestDecodePixelsRejectsBadSizes(t *testing.T) {
	for _, c := range [][2]int{{-4, 4}, {4, -4}, {0, 16}, {16, 0}, {maxFrameEdge + 1, 1}, {1 << 40, 1 << 40}} {
		if _, err := decodePixels(c[0], c[1], CodecRuns, []byte{1, 2, 3}); err == nil {
			t.Errorf("decodePixels(%d, %d) accepted", c[0], c[1])
		}
	}
}

// honestFragment is what the scripted workers below answer a task with: a
// small tinted rectangle whose place in the frame and depth follow the task
// index, so a job's fragments overlap. Nothing is rendered.
func honestFragment(task TaskBody) FragmentBody {
	m := img.New(8, 6)
	for i := range m.Pix {
		a := float32(i%7+1) / 8
		m.Pix[i] = img.RGBA{R: a * float32(task.TaskIndex+1) / 4, G: a / 2, B: a / 3, A: a}
	}
	return FragmentBody{
		JobID: task.JobID, TaskIndex: task.TaskIndex,
		X0: 3 + 5*task.TaskIndex, Y0: 4 + 3*task.TaskIndex, W: m.W, H: m.H,
		Codec: CodecRuns, Data: encodePixels(m, m.Bounds()), Depth: float64(task.TaskIndex + 1), Hit: true,
	}
}

// lyingWorker handshakes like a worker and answers every task with its
// honestFragment — except the last task of the first job it sees, whose
// fragment lie rewrites first (nil: it never lies). The fragments before
// that one are good, so the head has decoded layers in hand when it meets
// the bad one.
func lyingWorker(conn transport.Conn, lie func(*FragmentBody)) {
	_ = send(conn, transport.KindHello, 0, HelloBody{Name: "liar", MemQuota: int64(64 * units.MB)})
	var first uint64
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if msg.Kind != transport.KindTask {
			continue
		}
		var task TaskBody
		if transport.Decode(msg.Body, &task) != nil {
			return
		}
		if first == 0 {
			first = task.JobID
		}
		frag := honestFragment(task)
		if lie != nil && task.JobID == first && task.TaskIndex == lyingTasks-1 {
			lie(&frag)
		}
		_ = send(conn, transport.KindFragment, msg.ID, frag)
	}
}

// lyingTasks is how many bricks, and so tasks a job, the catalog of the
// lyingWorker tests has.
const lyingTasks = 3

// A fragment is a rectangle of the job's frame, and the rectangle comes off
// the wire. One that is not inside the frame — or whose payload is not
// exactly its size — fails the job with an error that names rectangle and
// frame, before it sizes an allocation (or, alone in a job, the client's
// frame), even when its sums would wrap. The layers decoded before the bad
// one go back to the free list whole: the next frame of the same size is
// byte for byte the frame of a head that was never lied to.
func TestFinalizeRejectsWrongSizedFragment(t *testing.T) {
	cat := testCatalog(t, lyingTasks)
	req := RenderBody{Dataset: "supernova", Dist: 2.4, Width: 32, Height: 32}
	// render starts a head over one lyingWorker and hands its client to fn.
	serve := func(t *testing.T, lie func(*FragmentBody), fn func(*Head, *Client)) {
		head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
		head.Logf = func(string, ...any) {}
		headSide, workerSide := transport.Pipe()
		go lyingWorker(workerSide, lie)
		if err := head.AddWorker(headSide); err != nil {
			t.Fatal(err)
		}
		if err := head.Start(); err != nil {
			t.Fatal(err)
		}
		defer head.Stop()
		clientSide, clientHead := transport.Pipe()
		go head.HandleClient(clientHead)
		client := NewClient(clientSide)
		defer client.Close()
		fn(head, client)
	}
	var good []byte
	serve(t, nil, func(_ *Head, client *Client) {
		res, err := client.Render(req)
		if err != nil {
			t.Fatal(err)
		}
		good = res.PNG
	})

	for _, c := range []struct {
		name string
		lie  func(*FragmentBody)
	}{
		{"negative x origin", func(f *FragmentBody) { f.X0 = -1 }},
		{"negative y origin", func(f *FragmentBody) { f.Y0 = -3 }},
		{"origin past the frame", func(f *FragmentBody) { f.X0, f.Y0 = 32, 40 }},
		{"one column past the edge", func(f *FragmentBody) { f.X0 = 32 - f.W + 1 }},
		{"one row past the edge", func(f *FragmentBody) { f.Y0 = 32 - f.H + 1 }},
		{"wider than the frame", func(f *FragmentBody) { f.X0, f.W = 0, 33 }},
		{"a whole other frame", func(f *FragmentBody) { f.X0, f.Y0, f.W, f.H = 0, 0, 64, 64 }},
		{"width that wraps the sum", func(f *FragmentBody) { f.X0, f.W = 1, math.MaxInt }},
		{"height that wraps the sum", func(f *FragmentBody) { f.Y0, f.H = 2, math.MaxInt }},
		{"origin that wraps the sum", func(f *FragmentBody) { f.X0 = math.MaxInt - 3 }},
		{"both near MaxInt", func(f *FragmentBody) { f.Y0, f.H = math.MaxInt, math.MaxInt }},
		{"beyond any frame", func(f *FragmentBody) { f.W, f.H = maxFrameEdge+1, 1 }},
		{"no size, yet data", func(f *FragmentBody) { f.W, f.H = 0, 0 }},
		{"no width", func(f *FragmentBody) { f.W = 0 }},
		{"negative size", func(f *FragmentBody) { f.W, f.H = -8, -6 }},
		{"size without data", func(f *FragmentBody) { f.Data = nil }},
		{"payload a byte long", func(f *FragmentBody) { f.Data = append(bytes.Clone(f.Data), 0) }},
		{"payload a byte short", func(f *FragmentBody) { f.Data = f.Data[:len(f.Data)-1] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			lied := honestFragment(TaskBody{TaskIndex: lyingTasks - 1})
			c.lie(&lied)
			serve(t, c.lie, func(head *Head, client *Client) {
				var res RenderResult
				var err error
				spent := totalAlloc(func() { res, err = client.Render(req) })
				if err == nil {
					t.Fatalf("a 32x32 request answered with a %v frame", res.Image.Bounds())
				}
				for _, want := range []string{
					fmt.Sprintf("a %dx%d rectangle at (%d,%d)", lied.W, lied.H, lied.X0, lied.Y0), "of a 32x32 frame",
				} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error does not say %q: %v", want, err)
					}
				}
				// Every legitimate buffer of a 32×32 frame together is a few
				// hundred KB. A lie that sized anything is far above.
				if spent > 8<<20 && !raceEnabled {
					t.Errorf("rejecting the fragment allocated %d bytes", spent)
				}
				if st := head.Stats(); st.JobsFailed != 1 || st.JobsCompleted != 0 {
					t.Errorf("jobs failed = %d, completed = %d; want 1, 0", st.JobsFailed, st.JobsCompleted)
				}
				res, err = client.Render(req)
				if err != nil {
					t.Fatalf("the frame after the rejected one: %v", err)
				}
				if !bytes.Equal(res.PNG, good) {
					t.Error("the frame after the rejected one differs from a never-lied-to head's")
				}
			})
		})
	}
}

// The steady-state frame path recycles its images and codec state. Two
// clients alternate two frame sizes over a three-brick dataset, concurrently,
// for 60 frames each: every PNG must be byte-identical to the first render of
// the same request (a recycled image still referenced, or handed out with
// stale pixels, would show here), and once the pools are warm a frame must
// allocate little.
func TestLiveFramesRecycleBuffers(t *testing.T) {
	cat := testCatalog(t, 3)
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 3, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const frames = 60
	request := func(client, i int) RenderBody {
		req := RenderBody{
			Dataset: []string{"supernova", "plume"}[client], Dist: 2.4,
			Angle: 0.4 * float64(i%4), Elevation: 0.2, Width: 128, Height: 128, Action: client + 1,
		}
		if i%2 == 1 {
			req.Width, req.Height = 96, 64
		}
		return req
	}
	// The reference: each distinct request rendered once, before anything
	// has been recycled twice.
	ref := make(map[RenderBody][sha256.Size]byte)
	warm := cl.Connect()
	for client := 0; client < 2; client++ {
		for i := 0; i < 4; i++ {
			res, err := warm.Render(request(client, i))
			if err != nil {
				t.Fatal(err)
			}
			ref[request(client, i)] = sha256.Sum256(res.PNG)
		}
	}
	warm.Close()

	clients := []*Client{cl.Connect(), cl.Connect()}
	run := func() {
		var wg sync.WaitGroup
		for c, client := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					req := request(c, i)
					res, err := client.Render(req)
					if err != nil {
						t.Errorf("client %d frame %d: %v", c, i, err)
						return
					}
					if b := res.Image.Bounds(); b.Dx() != req.Width || b.Dy() != req.Height {
						t.Errorf("client %d frame %d: %v frame for a %dx%d request", c, i, b, req.Width, req.Height)
					}
					if sha256.Sum256(res.PNG) != ref[req] {
						t.Errorf("client %d frame %d: PNG differs from the first render of the same request", c, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	run() // fills every pool at both sizes, with both clients in flight
	perFrame := totalAlloc(run) / (2 * frames)
	for _, c := range clients {
		c.Close()
	}
	// Measured ≈0.16 MB, much of it the client's own PNG decode; the same
	// loop before buffers were recycled allocated ≈7.7 MB a frame.
	const ceiling = 1 << 20
	t.Logf("steady state: %d KB allocated per frame", perFrame>>10)
	if perFrame > ceiling && !raceEnabled {
		t.Errorf("steady-state frame allocates %d bytes, ceiling %d", perFrame, ceiling)
	}
}

// A fragment carries only the bounds of what its brick drew, and a brick that
// drew nothing — here some are outside the frustum — carries no pixels at
// all. From a close, tall view of eight slabs the frame must still be, byte
// for byte, the frame of the plain pipeline (every brick rendered, shipped
// and composited full-frame by Serial), and the head's pixel counters must
// say exactly what was saved.
func TestRectangleFragmentsMatchFullFramePipeline(t *testing.T) {
	cat := testCatalog(t, 8)
	req := RenderBody{Dataset: "supernova", Angle: math.Pi / 2, Elevation: 0.1, Dist: 1.0, Width: 32, Height: 64}

	man := cat.Get(req.Dataset)
	images := make([]*img.Image, len(man.Chunks))
	depths := make([]float64, len(man.Chunks))
	var empty int
	var shipped int64
	for i := range man.Chunks {
		b, err := man.LoadBrick(i)
		if err != nil {
			t.Fatal(err)
		}
		f := raycast.RenderBrick(b, raycast.NewCamera(req.Angle, req.Elevation, req.Dist), raycast.PresetTF(man.TF),
			raycast.Options{Width: req.Width, Height: req.Height})
		if f.Bounds.Empty() {
			empty++
		}
		shipped += int64(f.Bounds.Dx() * f.Bounds.Dy())
		if images[i], err = decodePixels(req.Width, req.Height, CodecRuns, encodePixels(f.Image, f.Image.Bounds())); err != nil {
			t.Fatal(err)
		}
		depths[i] = f.Depth
	}
	if empty == 0 || empty == len(man.Chunks) {
		t.Fatalf("%d of %d bricks drew nothing; the view is meant to lose some and keep some", empty, len(man.Chunks))
	}
	t.Logf("%d of %d bricks drew nothing; the rest drew inside %d of %d pixels", empty, len(man.Chunks), shipped, req.Width*req.Height*len(man.Chunks))
	frame, _ := compositing.Serial{}.Composite(compositing.ByDepth(images, depths))
	var want bytes.Buffer
	if err := frame.EncodePNG(&want); err != nil {
		t.Fatal(err)
	}

	frames := int64(req.Width * req.Height * len(man.Chunks))
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 3, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	client := cl.Connect()
	res, err := client.Render(req)
	client.Close()
	st := cl.Head.Stats()
	cl.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PNG, want.Bytes()) {
		t.Error("the frame differs from the full-frame pipeline's")
	}
	if st.FragmentPixels != shipped || st.FramePixels != frames {
		t.Errorf("%d fragment pixels of %d frame pixels, want %d of %d", st.FragmentPixels, st.FramePixels, shipped, frames)
	}
}

// onceRequest is the frame renderOnce renders.
var onceRequest = RenderBody{Dataset: "supernova", Angle: 0.7, Elevation: 0.3, Dist: 2.4, Width: 48, Height: 48}

// renderOnce starts a three-worker cluster, renders onceRequest on it and
// returns the PNG: what a fresh head makes of that request.
func renderOnce(t *testing.T) []byte {
	t.Helper()
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), testCatalog(t, 3), 3, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	res, err := client.Render(onceRequest)
	if err != nil {
		t.Fatal(err)
	}
	return res.PNG
}

// staleConn is a worker's end of its connection that sends, ahead of the
// worker's first fragment, a message of a kind the head does not know.
type staleConn struct {
	transport.Conn
	once sync.Once
}

func (c *staleConn) Send(m transport.Message) error {
	if m.Kind == transport.KindFragment {
		c.once.Do(func() {
			_ = c.Conn.Send(transport.Message{Kind: transport.Kind(11), ID: m.ID, Body: []byte("not a body of this protocol")})
		})
	}
	return c.Conn.Send(m)
}

// A worker built before the distributed framebuffer left the service sends
// tile fragments, transport.Kind(11), which this head has no case for. Such a
// message in the middle of a job is logged and dropped: the job is not
// failed, and its frame is the frame of a cluster that never saw one.
func TestUnknownKindFromWorkerIgnored(t *testing.T) {
	want := renderOnce(t)

	cat := testCatalog(t, 3)
	head := NewHead(core.NewLocalityScheduler(5*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	var mu sync.Mutex
	var logged []string
	head.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("worker-%d", i), cat, 64*units.MB)
		w.Logf = func(string, ...any) {}
		headSide, workerSide := transport.Pipe()
		go func() { _ = w.Serve(&staleConn{Conn: workerSide}) }()
		if err := head.AddWorker(headSide); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	defer head.Stop()
	clientSide, headClientSide := transport.Pipe()
	go head.HandleClient(headClientSide)
	client := NewClient(clientSide)
	defer client.Close()

	res, err := client.Render(onceRequest)
	if err != nil {
		t.Fatalf("the job an unknown message arrived in the middle of: %v", err)
	}
	if !bytes.Equal(res.PNG, want) {
		t.Error("the frame differs from a fresh head's")
	}
	if s := head.Stats(); s.JobsCompleted != 1 || s.JobsFailed != 0 {
		t.Errorf("completed/failed = %d/%d, want 1/0", s.JobsCompleted, s.JobsFailed)
	}
	// A worker's stray message goes ahead of its fragment on the same
	// connection, so the head has handled it by the time it replies.
	mu.Lock()
	defer mu.Unlock()
	var strays int
	for _, l := range logged {
		if strings.Contains(l, "unexpected kind(11) from node") {
			strays++
		}
	}
	if strays == 0 {
		t.Errorf("no unknown-kind message was logged; the log:\n%s", strings.Join(logged, "\n"))
	}
}

// A camera comes off the wire too. One that is not a finite place is
// refused at submission — it is never a job, so nothing fails later — and
// the connection that sent it goes on rendering what a fresh head renders.
func TestSubmitRefusesNonFiniteCamera(t *testing.T) {
	want := renderOnce(t)
	good := onceRequest

	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), testCatalog(t, 3), 3, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	fields := []struct {
		name string
		set  func(*RenderBody, float64)
	}{
		{"Angle", func(r *RenderBody, v float64) { r.Angle = v }},
		{"Elevation", func(r *RenderBody, v float64) { r.Elevation = v }},
		{"Dist", func(r *RenderBody, v float64) { r.Dist = v }},
	}
	frames := int64(0)
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := good
			f.set(&bad, v)
			ch, err := client.RenderAsync(bad)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case out := <-ch:
				if out.Err == nil || !strings.Contains(out.Err.Error(), "bad camera") {
					t.Errorf("%s = %v: reply %v, want a bad-camera error", f.name, v, out.Err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s = %v: no reply; the request was admitted", f.name, v)
			}
			res, err := client.Render(good)
			if err != nil {
				t.Fatalf("good frame after %s = %v: %v", f.name, v, err)
			}
			frames++
			if !bytes.Equal(res.PNG, want) {
				t.Errorf("good frame after %s = %v differs from a fresh head's", f.name, v)
			}
		}
	}
	if s := cl.Head.Stats(); s.JobsFailed != 0 || s.JobsIssued != frames || s.JobsCompleted != frames {
		t.Errorf("issued %d, completed %d, failed %d; want the %d good frames and no failure",
			s.JobsIssued, s.JobsCompleted, s.JobsFailed, frames)
	}
}
