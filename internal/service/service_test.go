package service

import (
	"bytes"
	"image"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// testCatalog writes two small bricked datasets into a temp dir.
func testCatalog(t *testing.T, chunks int) *Catalog {
	t.Helper()
	dir := t.TempDir()
	cat := NewCatalog()
	for _, name := range []string{"supernova", "plume"} {
		g := volume.Generate(volume.FieldByName(name), 24, 24, 24)
		m, err := WriteDataset(filepath.Join(dir, name), name, g, chunks, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := volume.Generate(volume.Supernova, 16, 16, 20)
	m, err := WriteDataset(dir, "nova", g, 4, "supernova")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Chunks) != 4 {
		t.Fatalf("chunks = %d", len(m.Chunks))
	}
	loaded, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "nova" || loaded.Dims != m.Dims || len(loaded.Chunks) != 4 {
		t.Errorf("manifest mismatch: %+v", loaded)
	}
	// Bricks reload with ghost geometry intact.
	b, err := loaded.LoadBrick(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Extent != m.Chunks[2].Extent || b.GridOrigin != m.Chunks[2].GridOrigin {
		t.Error("brick geometry lost in roundtrip")
	}
	if _, err := loaded.LoadBrick(99); err == nil {
		t.Error("out-of-range brick did not error")
	}
}

func TestCatalogLoadDir(t *testing.T) {
	root := t.TempDir()
	g := volume.Generate(volume.Plume, 12, 12, 16)
	if _, err := WriteDataset(filepath.Join(root, "a"), "a", g, 2, "plume"); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteDataset(filepath.Join(root, "b"), "b", g, 2, "plume"); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.LoadDir(root); err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 || cat.Get("a") == nil || cat.Get("b") == nil {
		t.Errorf("catalog = %v", cat.Names())
	}
	if err := cat.Add(cat.Get("a")); err == nil {
		t.Error("duplicate Add did not error")
	}
}

// The live service must produce the same image a direct monolithic render
// does — the full distributed pipeline (decompose, schedule, render on
// workers, 2-3-swap composite) is an implementation detail of the picture.
func TestEndToEndRenderMatchesDirect(t *testing.T) {
	cat := testCatalog(t, 3)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 3, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	req := RenderBody{
		Dataset: "supernova",
		Angle:   0.7, Elevation: 0.3, Dist: 2.4,
		Width: 48, Height: 48,
	}
	res, err := client.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.Bounds().Dx() != 48 || res.Image.Bounds().Dy() != 48 {
		t.Fatalf("image size = %v", res.Image.Bounds())
	}
	if res.Misses != 3 || res.Hits != 0 {
		t.Errorf("first render hits/misses = %d/%d, want 0/3", res.Hits, res.Misses)
	}

	// Direct render of the same view.
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	cam := raycast.NewCamera(0.7, 0.3, 2.4)
	direct := raycast.RenderFull(g, cam, raycast.PresetTF("supernova"),
		raycast.Options{Width: 48, Height: 48})
	directPNG := direct.ToNRGBA()

	var worst int
	b := res.Image.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r1, g1, b1, _ := res.Image.At(x, y).RGBA()
			r2, g2, b2, _ := directPNG.At(x, y).RGBA()
			for _, d := range []int{int(r1>>8) - int(r2>>8), int(g1>>8) - int(g2>>8), int(b1>>8) - int(b2>>8)} {
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	if worst > 12 {
		t.Errorf("service image differs from direct render by %d/255 at worst", worst)
	}

	// Second render of the same dataset: everything cached.
	res2, err := client.Render(req)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Hits != 3 || res2.Misses != 0 {
		t.Errorf("second render hits/misses = %d/%d, want 3/0", res2.Hits, res2.Misses)
	}
}

func TestServiceWithEachScheduler(t *testing.T) {
	for _, mk := range []func() core.Scheduler{
		func() core.Scheduler { return core.NewLocalityScheduler(5 * units.Millisecond) },
	} {
		cat := testCatalog(t, 2)
		cl, err := StartCluster(mk(), cat, 2, 64*units.MB)
		if err != nil {
			t.Fatal(err)
		}
		client := cl.Connect()
		if _, err := client.Render(RenderBody{
			Dataset: "plume", Angle: 1, Elevation: 0.2, Dist: 2.5,
			Width: 24, Height: 24,
		}); err != nil {
			t.Errorf("render failed: %v", err)
		}
		client.Close()
		cl.Stop()
	}
}

func TestUnknownDatasetErrors(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 1, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	if _, err := client.Render(RenderBody{Dataset: "nope", Width: 16, Height: 16, Dist: 2}); err == nil {
		t.Error("unknown dataset did not error")
	}
	if _, err := client.Render(RenderBody{Dataset: "plume", Width: -1, Height: 16, Dist: 2}); err == nil {
		t.Error("bad size did not error")
	}
}

func TestConcurrentClientsAndBatch(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for u := 0; u < 2; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := cl.Connect()
			defer client.Close()
			name := []string{"supernova", "plume"}[u]
			for f := 0; f < 3; f++ {
				if _, err := client.Render(RenderBody{
					Dataset: name,
					Angle:   float64(f) * 0.3, Dist: 2.4,
					Width: 20, Height: 20,
					Action: u + 1,
					Batch:  f == 2,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPServiceEndToEnd(t *testing.T) {
	cat := testCatalog(t, 2)

	// Workers serve over real TCP connections.
	head := NewHead(core.NewLocalityScheduler(5*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	workerL, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer workerL.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.DialTCP(workerL.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			w := NewWorker("tcp-worker", cat, 64*units.MB)
			w.Logf = func(string, ...any) {}
			_ = w.Serve(conn)
			_ = i
		}()
	}
	for i := 0; i < 2; i++ {
		conn, err := workerL.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := head.AddWorker(conn); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}

	clientL, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go head.ServeClients(clientL)

	client, err := DialTCP(clientL.Addr())
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Render(RenderBody{
		Dataset: "supernova", Angle: 0.4, Elevation: 0.2, Dist: 2.5,
		Width: 32, Height: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.Bounds().Dx() != 32 {
		t.Errorf("bad image: %v", res.Image.Bounds())
	}
	client.Close()
	clientL.Close()
	head.Stop()
	wg.Wait()
}

func TestWorkerFailureReschedules(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	// Warm both workers.
	if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}); err != nil {
		t.Fatal(err)
	}
	// Kill worker 1's connection from the head side.
	cl.Head.slots[1].conn.Close()
	time.Sleep(20 * time.Millisecond)
	// Renders must still complete on the survivor.
	res, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16})
	if err != nil {
		t.Fatalf("render after worker loss: %v", err)
	}
	if res.Image == nil {
		t.Fatal("no image after worker loss")
	}
}

func TestPixelCodecs(t *testing.T) {
	m := img.New(16, 16)
	m.Set(1, 1, img.RGBA{R: 0.1, G: 0.2, B: 0.3, A: 0.4})
	m.Set(7, 9, img.RGBA{R: 0.9, G: 0.05, B: 0.5, A: 1})

	packed := encodePixels(m, m.Bounds())
	got, err := decodePixels(16, 16, CodecRuns, packed)
	if err != nil {
		t.Fatal(err)
	}
	// 16-bit quantization: within 1/65535 per channel.
	if d := img.MaxDiff(m, got); d > 1.0/60000 {
		t.Errorf("run codec error %v", d)
	}
	// A mostly-transparent fragment must come out far below its float32
	// size, 16 bytes a pixel.
	if raw := m.W * m.H * 16; len(packed)*4 > raw {
		t.Errorf("runs %dB vs raw %dB: no compression on sparse fragment", len(packed), raw)
	}
	// A rectangle of the image encodes as the crop would, without the crop.
	r := image.Rect(1, 1, 9, 11)
	crop := img.New(r.Dx(), r.Dy())
	for y := 0; y < crop.H; y++ {
		copy(crop.Pix[y*crop.W:][:crop.W], m.Pix[(r.Min.Y+y)*m.W+r.Min.X:])
	}
	if !bytes.Equal(encodePixels(m, r), encodePixels(crop, crop.Bounds())) {
		t.Error("a rectangle does not encode as its crop")
	}
	// Errors: codecs other than CodecRuns (0 was raw float32), a corrupt
	// payload.
	for _, codec := range []int{0, 2, 99} {
		if _, err := decodePixels(16, 16, codec, packed); err == nil {
			t.Errorf("unknown codec %d accepted on decode", codec)
		}
	}
	if _, err := decodePixels(16, 16, CodecRuns, []byte{1, 2}); err == nil {
		t.Error("corrupt runs accepted")
	}
}
