package transport

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"sync"
	"testing"
)

func testConnPair(t *testing.T, a, b Conn) {
	t.Helper()
	// Round trip both directions.
	want := Message{Kind: KindRender, ID: 42, Body: []byte("payload")}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.ID != want.ID || string(got.Body) != "payload" {
		t.Fatalf("got %+v", got)
	}
	if err := b.Send(Message{Kind: KindResult, ID: 42}); err != nil {
		t.Fatal(err)
	}
	if got, err = a.Recv(); err != nil || got.Kind != KindResult {
		t.Fatalf("reply: %+v err=%v", got, err)
	}
	// Ordering is preserved.
	for i := uint64(0); i < 10; i++ {
		if err := a.Send(Message{Kind: KindTask, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		m, err := b.Recv()
		if err != nil || m.ID != i {
			t.Fatalf("order broken at %d: %+v err=%v", i, m, err)
		}
	}
	// Close propagates.
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Error("Recv on closed peer did not error")
	}
	if err := b.Send(Message{}); err == nil {
		// TCP may buffer one write after peer close; a second must fail.
		if err2 := b.Send(Message{}); err2 == nil {
			t.Error("Send to closed peer never errored")
		}
	}
	b.Close()
}

func TestPipeConn(t *testing.T) {
	a, b := Pipe()
	testConnPair(t, a, b)
}

func TestTCPConn(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var server Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, _ = l.Accept()
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if server == nil {
		t.Fatal("accept failed")
	}
	testConnPair(t, client, server)
}

func TestChanListener(t *testing.T) {
	l := NewChanListener()
	var accepted Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		accepted, _ = l.Accept()
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := c.Send(Message{Kind: KindHello}); err != nil {
		t.Fatal(err)
	}
	if m, err := accepted.Recv(); err != nil || m.Kind != KindHello {
		t.Fatalf("accept side got %+v err=%v", m, err)
	}
	l.Close()
	if _, err := l.Dial(); err == nil {
		t.Error("Dial after Close did not error")
	}
	if _, err := l.Accept(); err == nil {
		t.Error("Accept after Close did not error")
	}
}

func TestPipeDrainsBufferedAfterPeerClose(t *testing.T) {
	a, b := Pipe()
	a.Send(Message{Kind: KindResult, ID: 7})
	a.Close()
	m, err := b.Recv()
	if err != nil || m.ID != 7 {
		t.Fatalf("buffered message lost: %+v err=%v", m, err)
	}
}

func TestKindString(t *testing.T) {
	if KindTask.String() != "task" || Kind(99).String() == "" {
		t.Error("Kind.String broken")
	}
}

// BenchmarkTransportRoundTrip measures one encode → send → recv → decode
// cycle with a fragment-sized body: the in-process pipe isolates the body
// codec cost, and the tcp variant adds the length-prefixed CRC32 frame
// codec on a loopback socket — the delta between the two is the checksum +
// framing overhead per message.
func BenchmarkTransportRoundTrip(b *testing.B) {
	in := &wireProbe{U: 7, I: 3, F: 1.5, Data: make([]byte, 4096)}
	run := func(b *testing.B, a, peer Conn) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := Encode(in)
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Send(Message{Kind: KindFragment, ID: uint64(i), Body: body}); err != nil {
				b.Fatal(err)
			}
			m, err := peer.Recv()
			if err != nil {
				b.Fatal(err)
			}
			var out wireProbe
			if err := Decode(m.Body, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pipe", func(b *testing.B) {
		a, peer := Pipe()
		defer a.Close()
		defer peer.Close()
		run(b, a, peer)
	})
	b.Run("tcp-crc32", func(b *testing.B) {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		done := make(chan Conn, 1)
		go func() {
			c, _ := l.Accept()
			done <- c
		}()
		a, err := DialTCP(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		peer := <-done
		if peer == nil {
			b.Fatal("accept failed")
		}
		defer peer.Close()
		run(b, a, peer)
	})
}

// tcpPair returns a connected raw net.Conn (for writing hostile bytes) and
// the framed transport Conn reading from it.
func tcpPair(t *testing.T) (net.Conn, Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan net.Conn, 1)
	go func() {
		nc, _ := l.Accept()
		done <- nc
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	framed := newTCPConn(server)
	t.Cleanup(func() { raw.Close(); framed.Close() })
	return raw, framed
}

func TestTCPRejectsCorruptFrame(t *testing.T) {
	raw, framed := tcpPair(t)
	// A well-formed frame with a deliberately wrong CRC.
	payload := make([]byte, frameMetaLen+4)
	binary.BigEndian.PutUint32(payload[0:4], uint32(KindTask))
	binary.BigEndian.PutUint64(payload[4:12], 7)
	copy(payload[frameMetaLen:], "data")
	hdr := make([]byte, frameHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload)^0xdeadbeef)
	raw.Write(hdr)
	raw.Write(payload)
	if _, err := framed.Recv(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want ErrCorruptFrame, got %v", err)
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	raw, framed := tcpPair(t)
	hdr := make([]byte, frameHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrameSize+1)
	raw.Write(hdr)
	if _, err := framed.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestTCPRejectsUndersizedFrame(t *testing.T) {
	raw, framed := tcpPair(t)
	hdr := make([]byte, frameHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], 3) // shorter than the message header
	raw.Write(hdr)
	if _, err := framed.Recv(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want ErrCorruptFrame, got %v", err)
	}
}

func TestTCPSendRefusesOversizedBody(t *testing.T) {
	old := MaxFrameSize
	MaxFrameSize = 1024
	defer func() { MaxFrameSize = old }()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		if c != nil {
			defer c.Close()
			c.Recv()
		}
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	err = client.Send(Message{Kind: KindFragment, Body: make([]byte, 2048)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestTCPEmptyBodyRoundTrip(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		done <- c
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-done
	defer server.Close()
	if err := client.Send(Message{Kind: KindHeartbeat, ID: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := server.Recv()
	if err != nil || m.Kind != KindHeartbeat || m.ID != 9 || len(m.Body) != 0 {
		t.Fatalf("got %+v err=%v", m, err)
	}
}

func TestConcurrentSendersOnTCP(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		done <- c
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-done

	const n = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := client.Send(Message{Kind: KindTask}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	got := 0
	for got < 4*n {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		got++
	}
	wg.Wait()
	client.Close()
	server.Close()
}
