package transport

import (
	"testing"
)

// collect receives n messages (or until the pipe closes) into a slice.
func collect(c Conn, n int) []Message {
	var out []Message
	for len(out) < n {
		m, err := c.Recv()
		if err != nil {
			break
		}
		out = append(out, m)
	}
	return out
}

func TestNetChaosDropIsSeededDeterministic(t *testing.T) {
	run := func(seed int64) []uint64 {
		a, b := Pipe()
		fi := NewFaultInjector(FaultConfig{Seed: seed, Drop: 0.5})
		fa := fi.Wrap(a)
		for i := uint64(0); i < 40; i++ {
			if err := fa.Send(Message{Kind: KindTask, ID: i}); err != nil {
				t.Fatal(err)
			}
		}
		fa.Close()
		var ids []uint64
		for {
			m, err := b.Recv()
			if err != nil {
				break
			}
			ids = append(ids, m.ID)
		}
		return ids
	}
	one, two := run(7), run(7)
	if len(one) == 0 || len(one) == 40 {
		t.Fatalf("drop rate 0.5 delivered %d/40", len(one))
	}
	if len(one) != len(two) {
		t.Fatalf("same seed, different delivery: %d vs %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("same seed, different order at %d: %d vs %d", i, one[i], two[i])
		}
	}
	other := run(8)
	same := len(other) == len(one)
	if same {
		for i := range one {
			if one[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules (suspicious)")
	}
}

func TestNetChaosDuplicateAndReorder(t *testing.T) {
	a, b := Pipe()
	fi := NewFaultInjector(FaultConfig{Seed: 3, Duplicate: 1})
	fa := fi.Wrap(a)
	fa.Send(Message{Kind: KindFragment, ID: 1})
	got := collect(b, 2)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 1 {
		t.Fatalf("duplicate not delivered twice: %+v", got)
	}
	if fi.Stats().Duplicated != 1 {
		t.Errorf("stats: %+v", fi.Stats())
	}

	a2, b2 := Pipe()
	fi2 := NewFaultInjector(FaultConfig{Seed: 3, Reorder: 1})
	fa2 := fi2.Wrap(a2)
	fa2.Send(Message{Kind: KindFragment, ID: 1}) // held
	fa2.Send(Message{Kind: KindFragment, ID: 2}) // ships, then releases 1... but 2 is also held-eligible
	fa2.Send(Message{Kind: KindFragment, ID: 3})
	fa2.Close() // flush any held message
	got2 := collect(b2, 3)
	if len(got2) != 3 {
		t.Fatalf("reorder lost messages: %+v", got2)
	}
	inOrder := got2[0].ID == 1 && got2[1].ID == 2 && got2[2].ID == 3
	if inOrder {
		t.Fatalf("reorder probability 1 delivered in order: %+v", got2)
	}
	if fi2.Stats().Reordered == 0 {
		t.Errorf("stats: %+v", fi2.Stats())
	}
}

func TestNetChaosPartitionBlackholesAndHeals(t *testing.T) {
	a, b := Pipe()
	fi := NewFaultInjector(FaultConfig{Seed: 1})
	fa := fi.Wrap(a)
	fi.Partition()
	if !fi.Partitioned() {
		t.Fatal("Partitioned() false after Partition()")
	}
	// Partitions swallow everything, even hellos.
	if err := fa.Send(Message{Kind: KindHello, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send(Message{Kind: KindTask, ID: 2}); err != nil {
		t.Fatal(err)
	}
	fi.Heal()
	if err := fa.Send(Message{Kind: KindTask, ID: 3}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.ID != 3 {
		t.Fatalf("post-heal message: %+v err=%v", m, err)
	}
	if s := fi.Stats(); s.Partitioned != 2 {
		t.Errorf("partitioned count: %+v", s)
	}
}

func TestNetChaosHelloExemptFromFaults(t *testing.T) {
	a, b := Pipe()
	fi := NewFaultInjector(FaultConfig{Seed: 2, Drop: 1})
	fa := fi.Wrap(a)
	if err := fa.Send(Message{Kind: KindHello, ID: 5}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Kind != KindHello {
		t.Fatalf("hello was faulted: %+v err=%v", m, err)
	}
	// Everything else drops.
	fa.Send(Message{Kind: KindTask})
	fa.Close()
	if _, err := b.Recv(); err == nil {
		t.Error("dropped message was delivered")
	}
}

func TestNetChaosCorruptMutatesBodyNotOriginal(t *testing.T) {
	a, b := Pipe()
	fi := NewFaultInjector(FaultConfig{Seed: 11, Corrupt: 1})
	fa := fi.Wrap(a)
	orig := []byte{1, 2, 3, 4}
	keep := append([]byte(nil), orig...)
	fa.Send(Message{Kind: KindFragment, ID: 1, Body: orig})
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(keep) {
		t.Error("corruption mutated the caller's buffer")
	}
	if string(m.Body) == string(keep) {
		t.Error("body was not corrupted")
	}
	if fi.Stats().Corrupted != 1 {
		t.Errorf("stats: %+v", fi.Stats())
	}
}
