package main

import (
	"bytes"
	"image/png"
	"math"
	"runtime"

	"vizsched/internal/compositing"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/service"
	"vizsched/internal/transport"
)

// Layer probes: direct timed calls into one package's public functions at
// the shapes the workload just ran, made after the cluster has stopped. They
// say what a stage costs alone; the traced window says what it cost in
// place. The difference between the client's p50 and the sum of the stages
// on a frame's blocking path is reported, not hidden.

const probeReps = 200

// timeOp runs fn n times and returns its median duration in reference
// microseconds and its mean mallocs and allocated KB per call.
func timeOp(n int, fn func()) (us, allocs, kb float64) {
	durs := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range durs {
		start := clock.now()
		fn()
		durs[i] = (clock.now() - start) / 1e3
	}
	runtime.ReadMemStats(&m1)
	return median(durs), float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// codecProbe times transport.Encode and transport.Decode of one body.
type codecProbe struct {
	encUS, decUS, allocs float64
}

func probeCodec[T any](body T) codecProbe {
	var raw []byte
	encUS, encAllocs, _ := timeOp(probeReps, func() {
		var err error
		if raw, err = transport.Encode(body); err != nil {
			panic(err)
		}
	})
	decUS, decAllocs, _ := timeOp(probeReps, func() {
		var out T
		if err := transport.Decode(raw, &out); err != nil {
			panic(err)
		}
	})
	return codecProbe{encUS, decUS, encAllocs + decAllocs}
}

// tcpEchoUS is the median round trip of a body-sized message over a loopback
// transport.ListenTCP/DialTCP pair.
func tcpEchoUS(bodyBytes int) (float64, error) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil || conn.Send(m) != nil {
				return
			}
		}
	}()
	conn, err := transport.DialTCP(l.Addr())
	if err != nil {
		return 0, err
	}
	msg := transport.Message{Kind: transport.KindTask, ID: 1, Body: make([]byte, bodyBytes)}
	var echoErr error
	us, _, _ := timeOp(probeReps, func() {
		if err := conn.Send(msg); err != nil {
			echoErr = err
			return
		}
		if _, err := conn.Recv(); err != nil {
			echoErr = err
		}
	})
	conn.Close()
	<-done
	return us, echoErr
}

// spanStats summarises the traced window's transport and scheduler spans.
type spanStats struct {
	sends      float64
	bodyBytes  float64
	sendUS     []float64
	meanBody   map[transport.Kind]float64
	schedUS    []float64
	schedQueue []float64
}

func summarise(spans []span) spanStats {
	st := spanStats{meanBody: make(map[transport.Kind]float64)}
	count := make(map[transport.Kind]float64)
	for _, s := range spans {
		switch s.name {
		case spanSend:
			st.sends++
			st.bodyBytes += float64(s.body)
			st.sendUS = append(st.sendUS, float64(s.end-s.start)/1e3)
			st.meanBody[s.kind] += float64(s.body)
			count[s.kind]++
		case spanSchedule:
			st.schedUS = append(st.schedUS, float64(s.end-s.start)/1e3)
			st.schedQueue = append(st.schedQueue, float64(s.jobs))
		}
	}
	for k, n := range count {
		st.meanBody[k] /= n
	}
	return st
}

// liveLayers fills the per-layer metrics of a live workload from the traced
// window w, the untraced reference window ref of the same run, the recorded
// spans, and the layer probes.
func liveLayers(m metricSet, spec liveSpec, d *driver, ref, w *window, spans []span) {
	st := summarise(spans)
	jobs, tasks, secs := w.jobs(), w.tasks(), w.secs()
	p50 := percentile(ref.latMS, 50)
	missShare := ratio(float64(w.st1.ChunkMisses-w.st0.ChunkMisses), tasks)

	m.set("client.frames", float64(len(w.latMS)))
	m.set("client.failed", float64(d.failed.Load()))
	m.set("client.frames_per_s", float64(len(w.latMS))/secs)
	m.set("client.batch_frames_per_s", float64(len(w.batchAt))/secs)
	m.set("client.frame_p50_ms", percentile(w.latMS, 50))
	m.set("client.frame_p95_ms", percentile(w.latMS, 95))
	if len(w.latMS) >= 1000 { // ten samples beyond the percentile
		m.set("client.frame_p99_ms", percentile(w.latMS, 99))
	}
	m.set("client.png_bytes_per_frame", float64(w.pngBytes)/float64(len(w.latMS)))

	m.set("service.jobs_completed", jobs)
	m.set("service.jobs_failed", float64(w.st1.JobsFailed-w.st0.JobsFailed))
	m.set("service.tasks_per_frame", tasks/jobs)
	execMean := ratio(w.execMS(), tasks)
	m.set("service.worker_exec_ms_mean", execMean)
	m.set("service.tasks_redispatched", float64(w.st1.TasksRedispatched-w.st0.TasksRedispatched))

	m.set("core.sched_calls", float64(len(st.schedUS)))
	schedP50 := percentile(st.schedUS, 50)
	m.set("core.sched_us_per_call_p50", schedP50)
	m.set("core.sched_us_per_call_p95", percentile(st.schedUS, 95))
	m.set("core.sched_queue_len_mean", mean(st.schedQueue))
	m.set("core.sched_busy_share", sum(st.schedUS)/1e6/secs)
	m.set("core.sched_cycle_share_p95", percentile(st.schedUS, 95)*1e3/float64(omega))

	m.set("transport.msgs_per_frame", st.sends/jobs)
	m.set("transport.body_kb_per_frame", st.bodyBytes/1024/jobs)
	m.set("transport.send_us_per_msg_p50", percentile(st.sendUS, 50))
	m.set("transport.send_busy_share", sum(st.sendUS)/1e6/secs)

	m.set("cache.hit_share", 1-missShare)
	m.set("cache.evictions_per_frame", float64(w.st1.CacheEvictions-w.st0.CacheEvictions)/jobs)

	m.set("runtime.gc_cycles", float64(w.mem1.NumGC-w.mem0.NumGC))
	m.set("runtime.gc_pause_ms_total", float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6)
	m.set("trace.overhead_share", percentile(w.latMS, 50)/p50-1)

	// Ray-cast, load, composite and PNG probes: every dataset the workload
	// visits, at sixteen views around the run's own orbit.
	const views = 16
	var loadMS, brickMS, frameMS []float64
	var brickAllocs float64
	var layers []*img.Image
	for ds := 0; ds < spec.datasets; ds++ {
		man := d.cl.catalog.Get(datasetName(ds))
		tf := raycast.PresetTF(man.TF)
		bricks := make([]*raycast.Brick, len(man.Chunks))
		for i := range bricks {
			us, _, _ := timeOp(3, func() {
				var err error
				if bricks[i], err = man.LoadBrick(i); err != nil {
					panic(err)
				}
			})
			loadMS = append(loadMS, us/1e3)
		}
		for v := 0; v < views; v++ {
			cam := func() *raycast.Camera {
				return raycast.NewCamera(d.plan.start+float64(v)*2*math.Pi/views, d.plan.elev, camDist)
			}
			var frame float64
			images := make([]*img.Image, len(bricks))
			depths := make([]float64, len(bricks))
			for i, b := range bricks {
				us, allocs, _ := timeOp(1, func() {
					f := raycast.RenderBrick(b, cam(), tf, raycast.Options{
						Width: spec.width, Height: spec.width, Parallel: true})
					images[i], depths[i] = f.Image, f.Depth
				})
				brickMS = append(brickMS, us/1e3)
				brickAllocs += allocs
				frame += us / 1e3
			}
			frameMS = append(frameMS, frame)
			if ds == 0 && v == 0 {
				layers = compositing.ByDepth(images, depths)
			}
		}
	}
	renderFrame := median(frameMS)
	loadBrick := median(loadMS)
	renderBrick := median(brickMS)
	m.set("raycast.render_ms_per_brick", renderBrick)
	m.set("raycast.render_ms_per_frame", renderFrame)
	m.set("raycast.allocs_per_brick", brickAllocs/float64(len(brickMS)))
	m.set("raycast.share_of_frame", renderFrame/p50)
	m.set("cache.load_ms_per_brick", loadBrick)
	m.set("service.worker_other_ms_per_task", execMean-renderBrick-loadBrick*missShare)

	var final *img.Image
	compUS, compAllocs, _ := timeOp(probeReps, func() {
		final, _ = compositing.Concurrent{}.Composite(layers)
	})
	m.set("compositing.composite_us_per_frame", compUS)
	m.set("compositing.allocs_per_frame", compAllocs)
	var buf bytes.Buffer
	pngUS, _, pngKB := timeOp(probeReps, func() {
		buf.Reset()
		if err := final.EncodePNG(&buf); err != nil {
			panic(err)
		}
	})
	m.set("img.png_encode_us_per_frame", pngUS)
	m.set("img.png_alloc_kb_per_frame", pngKB)
	decodeUS, _, _ := timeOp(probeReps, func() {
		if _, err := png.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			panic(err)
		}
	})
	m.set("client.png_decode_us_per_frame", decodeUS)

	// Wire-codec probes at the body sizes the trace observed.
	req := d.plan.frame(spec, 0)
	n := float64(spec.chunks)
	render := probeCodec(req)
	task := probeCodec(service.TaskBody{JobID: 1, TaskIndex: 1, Dataset: req.Dataset, Chunk: 1, Render: req})
	frag := probeCodec(service.FragmentBody{JobID: 1, TaskIndex: 1, W: spec.width, H: spec.width,
		Codec: service.CodecFlate, Data: make([]byte, int(st.meanBody[transport.KindFragment])), Depth: 2, Hit: true, ExecNanos: 1})
	res := probeCodec(service.ResultBody{Width: spec.width, Height: spec.width,
		PNG: buf.Bytes(), ElapsedNanos: 1, Hits: spec.chunks})
	m.set("transport.encode_task_us", task.encUS)
	m.set("transport.decode_task_us", task.decUS)
	m.set("transport.encode_frag_us", frag.encUS)
	m.set("transport.decode_frag_us", frag.decUS)
	m.set("transport.codec_allocs_per_frame", render.allocs+n*task.allocs+n*frag.allocs+res.allocs)
	fragMsg := transport.Message{Kind: transport.KindFragment, ID: 1, Body: make([]byte, int(st.meanBody[transport.KindFragment]))}
	var framed []byte
	var hdr [32]byte
	rtUS, _, _ := timeOp(probeReps, func() {
		var err error
		if framed, err = transport.AppendFrame(framed[:0], fragMsg); err != nil {
			panic(err)
		}
		if _, err := transport.ReadFrame(bytes.NewReader(framed), hdr[:]); err != nil {
			panic(err)
		}
	})
	m.set("transport.frame_roundtrip_us", rtUS)
	if echo, err := tcpEchoUS(int(st.meanBody[transport.KindTask])); err == nil {
		m.set("transport.tcp_echo_us", echo)
	}

	// The blocking path of one frame: request out, one scheduling pass, the
	// head encoding every task in turn, the workers in parallel, the head
	// decoding every fragment in turn, composite, PNG, reply, and the
	// client's PNG decode. A ray-cast already spreads over every core, so the
	// bricks' ray-casts add up; a brick load runs on one core, so loads on
	// different workers overlap as far as there are cores.
	codecMS := (render.encUS + render.decUS + n*task.encUS + task.decUS +
		frag.encUS + n*frag.decUS + res.encUS + res.decUS) / 1e3
	loadsAtOnce := float64(min(spec.workers, runtime.GOMAXPROCS(0)))
	stages := codecMS + schedP50/1e3 + renderFrame + loadBrick*missShare*n/loadsAtOnce +
		(compUS+pngUS+decodeUS)/1e3
	m.set("service.unattributed_ms_per_frame", p50-stages)
}
