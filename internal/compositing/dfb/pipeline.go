package dfb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/img"
	"vizsched/internal/transport"
)

// Params configure a pipelined distributed-framebuffer run.
type Params struct {
	// Nodes is the renderer count; node i contributes the i-th
	// front-to-back layer of every frame.
	Nodes int
	// Tile is the tile edge in pixels (0 = DefaultTileSize).
	Tile int
	// Window bounds how many frames may be in flight at once, so frame f+1
	// renders while frame f is still compositing or delivering. 0 selects 2.
	Window int
	// Dead marks failed nodes: a dead node renders nothing and owns no
	// tiles; ownership re-homes over the survivors.
	Dead []bool
	// Delay, if set, stalls a node's render — straggler injection.
	Delay func(node, frame int) time.Duration
}

// RunStats summarizes a pipeline run.
type RunStats struct {
	// TilesFinalized counts tile completions across all frames.
	TilesFinalized int64
	// FragmentsSent counts tile fragments that crossed the transport
	// (self-owned tiles are delivered locally).
	FragmentsSent int64
	// MaxInFlight is the peak number of frames simultaneously in flight;
	// it never exceeds Window.
	MaxInFlight int64
}

// tileFragBody is the KindTileFrag payload.
type tileFragBody struct {
	Frame, Tile, Rank int
	Pix               []img.RGBA
}

// tileDoneBody is the KindTileDone payload.
type tileDoneBody struct {
	Frame, Tile int
	Pix         []img.RGBA
}

// pixelBytes is one img.RGBA on the wire: four little-endian float32s.
const pixelBytes = 16

func appendPixels(dst []byte, pix []img.RGBA) []byte {
	dst = transport.AppendUint64(dst, uint64(len(pix)))
	for _, p := range pix {
		dst = transport.AppendFloat32(dst, p.R)
		dst = transport.AppendFloat32(dst, p.G)
		dst = transport.AppendFloat32(dst, p.B)
		dst = transport.AppendFloat32(dst, p.A)
	}
	return dst
}

func readPixels(r *transport.BodyReader) []img.RGBA {
	n := r.Count(pixelBytes)
	if n == 0 {
		return nil
	}
	pix := make([]img.RGBA, n)
	for i := range pix {
		pix[i] = img.RGBA{R: r.Float32(), G: r.Float32(), B: r.Float32(), A: r.Float32()}
	}
	return pix
}

// AppendBody implements transport.BodyAppender.
func (b tileFragBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendInt(dst, b.Frame)
	dst = transport.AppendInt(dst, b.Tile)
	dst = transport.AppendInt(dst, b.Rank)
	return appendPixels(dst, b.Pix)
}

// ParseBody implements transport.BodyParser.
func (b *tileFragBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = tileFragBody{Frame: r.Int(), Tile: r.Int(), Rank: r.Int(), Pix: readPixels(&r)}
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b tileDoneBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendInt(dst, b.Frame)
	dst = transport.AppendInt(dst, b.Tile)
	return appendPixels(dst, b.Pix)
}

// ParseBody implements transport.BodyParser.
func (b *tileDoneBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = tileDoneBody{Frame: r.Int(), Tile: r.Int(), Pix: readPixels(&r)}
	return r.Done()
}

// ownerFrame is one frame's reduction state on one owner node.
type ownerFrame struct {
	out  *img.Image
	red  *Reducer
	done int
}

// Run drives frames through the distributed framebuffer: every alive node
// renders its layer for each frame (render(node, frame), front-to-back by
// node index), splits it into tiles, and pushes each tile to its owner as a
// KindTileFrag message; owners reduce fragments as they arrive and ship
// finalized tiles to the display as KindTileDone messages. There is no
// global barrier anywhere — a tile finalizes the moment its last fragment
// lands, and the bounded window overlaps consecutive frames.
//
// Run returns the assembled frames, which are bit-identical to compositing
// the same layers with Serial.
func Run(p Params, w, h, frames int, render func(node, frame int) *img.Image) ([]*img.Image, RunStats, error) {
	if p.Nodes <= 0 {
		return nil, RunStats{}, fmt.Errorf("dfb: need at least one node")
	}
	window := p.Window
	if window <= 0 {
		window = 2
	}
	var alive []int
	for i := 0; i < p.Nodes; i++ {
		if i < len(p.Dead) && p.Dead[i] {
			continue
		}
		alive = append(alive, i)
	}
	if len(alive) == 0 {
		return nil, RunStats{}, fmt.Errorf("dfb: all nodes dead")
	}
	layout := NewLayout(w, h, p.Tile)
	rank := make(map[int]int, len(alive)) // node -> front-to-back rank among alive
	for r, n := range alive {
		rank[n] = r
	}
	ownerOf := func(t int) int { return alive[layout.Owner(t, len(alive))] }
	ownedTiles := make(map[int]int, len(alive)) // node -> tiles it owns
	for t := 0; t < layout.NumTiles(); t++ {
		ownedTiles[ownerOf(t)]++
	}

	var st RunStats
	var firstErr atomic.Value
	var teardown func()
	// fail records the first error and tears the wiring down so every
	// goroutine blocked on a Send or Recv unblocks with ErrClosed.
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, error(err))
		teardown()
	}

	// Wiring: a full mesh among alive nodes for fragment pushes, plus a
	// star from every node to the display for finalized tiles.
	conns := make([][]transport.Conn, p.Nodes)
	for i := range conns {
		conns[i] = make([]transport.Conn, p.Nodes)
	}
	var allConns []transport.Conn
	for ai, i := range alive {
		for _, j := range alive[ai+1:] {
			a, b := transport.Pipe()
			conns[i][j], conns[j][i] = a, b
			allConns = append(allConns, a, b)
		}
	}
	toDisplay := make([]transport.Conn, p.Nodes)
	var displayEnds []transport.Conn
	for _, i := range alive {
		a, b := transport.Pipe()
		toDisplay[i] = a
		displayEnds = append(displayEnds, b)
		allConns = append(allConns, a, b)
	}
	var teardownOnce sync.Once
	teardown = func() {
		teardownOnce.Do(func() {
			for _, c := range allConns {
				c.Close()
			}
		})
	}

	// Frame admission: the window semaphore is acquired at launch and
	// released by the display when the frame is fully assembled.
	sem := make(chan struct{}, window)
	var launched, completed atomic.Int64
	frameStart := make(map[int]chan int, len(alive))
	for _, i := range alive {
		frameStart[i] = make(chan int, window)
	}
	go func() {
		for f := 0; f < frames; f++ {
			sem <- struct{}{}
			in := launched.Add(1) - completed.Load()
			for {
				cur := atomic.LoadInt64(&st.MaxInFlight)
				if in <= cur || atomic.CompareAndSwapInt64(&st.MaxInFlight, cur, in) {
					break
				}
			}
			for _, i := range alive {
				frameStart[i] <- f
			}
		}
		for _, i := range alive {
			close(frameStart[i])
		}
	}()

	var renderWG, ownerWG sync.WaitGroup
	for _, node := range alive {
		node := node
		// Per-node inbox merging every peer connection plus local
		// self-deliveries from this node's own renderer.
		inbox := make(chan transport.Message, 256)
		var feeders sync.WaitGroup
		for _, peer := range alive {
			if peer == node {
				continue
			}
			c := conns[node][peer]
			feeders.Add(1)
			go func() {
				defer feeders.Done()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					inbox <- m
				}
			}()
		}

		// Renderer: render, tile, push. Fragments for self-owned tiles
		// bypass the wire and land directly in the inbox.
		feeders.Add(1)
		renderWG.Add(1)
		go func() {
			defer feeders.Done()
			defer renderWG.Done()
			for f := range frameStart[node] {
				if p.Delay != nil {
					if d := p.Delay(node, f); d > 0 {
						time.Sleep(d)
					}
				}
				layer := render(node, f)
				for t := 0; t < layout.NumTiles(); t++ {
					body, err := transport.Encode(tileFragBody{Frame: f, Tile: t, Rank: rank[node], Pix: ExtractTile(layout, layer, t)})
					if err != nil {
						fail(err)
						return
					}
					msg := transport.Message{Kind: transport.KindTileFrag, Body: body}
					if owner := ownerOf(t); owner == node {
						inbox <- msg
					} else {
						atomic.AddInt64(&st.FragmentsSent, 1)
						if err := conns[node][owner].Send(msg); err != nil {
							fail(err)
							return
						}
					}
				}
			}
		}()

		// Close the inbox once the renderer and every peer reader are done
		// (readers exit when Run tears the connections down).
		go func() {
			feeders.Wait()
			close(inbox)
		}()

		// Owner: reduce arriving fragments; a finalized tile ships to the
		// display immediately.
		ownerWG.Add(1)
		go func() {
			defer ownerWG.Done()
			inFlight := make(map[int]*ownerFrame)
			for m := range inbox {
				var body tileFragBody
				if err := transport.Decode(m.Body, &body); err != nil {
					fail(err)
					return
				}
				of := inFlight[body.Frame]
				if of == nil {
					of = &ownerFrame{out: img.New(w, h)}
					of.red = NewReducer(layout, len(alive), of.out)
					inFlight[body.Frame] = of
				}
				fin, err := of.red.Add(Fragment{Frame: body.Frame, Tile: body.Tile, Rank: body.Rank, Pix: body.Pix})
				if err != nil {
					fail(err)
					return
				}
				if !fin {
					continue
				}
				atomic.AddInt64(&st.TilesFinalized, 1)
				done, err := transport.Encode(tileDoneBody{Frame: body.Frame, Tile: body.Tile, Pix: ExtractTile(layout, of.out, body.Tile)})
				if err != nil {
					fail(err)
					return
				}
				if err := toDisplay[node].Send(transport.Message{Kind: transport.KindTileDone, Body: done}); err != nil {
					fail(err)
					return
				}
				if of.done++; of.done == ownedTiles[node] {
					delete(inFlight, body.Frame)
				}
			}
		}()
	}

	// Display: assemble frames from finalized tiles; a completed frame
	// releases one window slot.
	outs := make([]*img.Image, frames)
	allDone := make(chan struct{})
	displayInbox := make(chan transport.Message, 256)
	var displayFeeders sync.WaitGroup
	for _, c := range displayEnds {
		c := c
		displayFeeders.Add(1)
		go func() {
			defer displayFeeders.Done()
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				displayInbox <- m
			}
		}()
	}
	go func() { displayFeeders.Wait(); close(displayInbox) }()
	go func() {
		defer close(allDone)
		got := make(map[int]int, frames)
		assembled := 0
		for assembled < frames {
			m, ok := <-displayInbox
			if !ok {
				fail(fmt.Errorf("dfb: display starved with %d/%d frames assembled", assembled, frames))
				return
			}
			var body tileDoneBody
			if err := transport.Decode(m.Body, &body); err != nil {
				fail(err)
				return
			}
			if outs[body.Frame] == nil {
				outs[body.Frame] = img.New(w, h)
			}
			x0, y0, x1, y1 := layout.Bounds(body.Tile)
			tw := x1 - x0
			for y := y0; y < y1; y++ {
				copy(outs[body.Frame].Pix[y*w+x0:y*w+x1], body.Pix[(y-y0)*tw:(y-y0+1)*tw])
			}
			if got[body.Frame]++; got[body.Frame] == layout.NumTiles() {
				assembled++
				completed.Add(1)
				<-sem
			}
		}
	}()

	renderWG.Wait() // all renderers finished pushing
	<-allDone       // display assembled every frame (or starved on error)
	teardown()      // unblocks peer readers, which drains owners out
	ownerWG.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, st, err
	}
	return outs, st, nil
}
