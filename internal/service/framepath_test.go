package service

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/img"
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

// A fragment's pixel payload comes off the wire. A deflate stream that
// expands far past the fragment's size must be rejected at the first byte
// too many, not after it has been inflated whole.
func TestDecodePixelsRejectsDeflateBomb(t *testing.T) {
	var bomb bytes.Buffer
	zw, _ := flate.NewWriter(&bomb, flate.BestSpeed)
	if _, err := zw.Write(make([]byte, 64<<20)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	// Warm the codec state so its one-time allocations are not counted.
	if _, err := decodePixels(16, 16, CodecFlate, bomb.Bytes()); err == nil {
		t.Fatal("64 MB stream accepted as a 16x16 fragment")
	}
	spent := totalAlloc(func() {
		if _, err := decodePixels(16, 16, CodecFlate, bomb.Bytes()); err == nil {
			t.Error("64 MB stream accepted as a 16x16 fragment")
		}
	})
	if spent > 1<<20 {
		t.Errorf("rejecting a %d-byte bomb allocated %d bytes", bomb.Len(), spent)
	}
	// One byte over is over.
	m := img.New(16, 16)
	exact, _ := encodePixels(m, CodecFlate)
	if _, err := decodePixels(16, 16, CodecFlate, exact); err != nil {
		t.Fatalf("exact-size stream rejected: %v", err)
	}
	var over bytes.Buffer
	zw.Reset(&over)
	zw.Write(make([]byte, 16*16*8+1))
	zw.Close()
	if _, err := decodePixels(16, 16, CodecFlate, over.Bytes()); err == nil {
		t.Error("stream one byte longer than the fragment accepted")
	}
	// A stream cut before its final block decodes every pixel and then ends
	// badly: still an error.
	if _, err := decodePixels(16, 16, CodecFlate, exact[:len(exact)-1]); err == nil {
		t.Error("truncated stream accepted")
	}
}

// Sizes come off the wire too: a non-positive or absurd one is an error
// before it reaches an allocation, never a panic.
func TestDecodePixelsRejectsBadSizes(t *testing.T) {
	for _, c := range [][2]int{{-4, 4}, {4, -4}, {0, 16}, {16, 0}, {maxFrameEdge + 1, 1}, {1 << 40, 1 << 40}} {
		for _, codec := range []int{CodecRaw, CodecFlate} {
			if _, err := decodePixels(c[0], c[1], codec, []byte{1, 2, 3}); err == nil {
				t.Errorf("decodePixels(%d, %d, codec %d) accepted", c[0], c[1], codec)
			}
		}
	}
}

// lyingWorker handshakes like a worker and answers every task with a
// well-formed fragment of the wrong size.
func lyingWorker(conn transport.Conn, w, h int) {
	_ = send(conn, transport.KindHello, 0, HelloBody{Name: "liar", MemQuota: int64(64 * units.MB)})
	data, _ := encodePixels(img.New(w, h), CodecFlate)
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
		_ = send(conn, transport.KindFragment, msg.ID, FragmentBody{
			JobID: task.JobID, TaskIndex: task.TaskIndex, W: w, H: h, Codec: CodecFlate, Data: data, Depth: 1, Hit: true,
		})
	}
}

// The head composites only fragments of the size it asked for: a worker
// reporting another W×H fails the job instead of sizing the head's
// allocations (or, with one task, the client's frame).
func TestFinalizeRejectsWrongSizedFragment(t *testing.T) {
	cat := testCatalog(t, 1)
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	headSide, workerSide := transport.Pipe()
	go lyingWorker(workerSide, 8, 8)
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

	res, err := client.Render(RenderBody{Dataset: "supernova", Dist: 2.4, Width: 32, Height: 32})
	if err == nil {
		t.Fatalf("a 32x32 request answered with a %v frame", res.Image.Bounds())
	}
	if !strings.Contains(err.Error(), "8x8") || !strings.Contains(err.Error(), "32x32") {
		t.Errorf("error does not name the sizes: %v", err)
	}
	if st := head.Stats(); st.JobsFailed != 1 {
		t.Errorf("jobs failed = %d, want 1", st.JobsFailed)
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
