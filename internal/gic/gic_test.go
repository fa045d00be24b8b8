package gic

import (
	"testing"
	"testing/quick"

	"coregap/internal/hw"
)

func TestInjectAckEOILifecycle(t *testing.T) {
	var l ListRegs
	slot := l.Inject(hw.IRQVTimer, false)
	if slot < 0 {
		t.Fatal("inject failed on empty list")
	}
	if l.At(slot).State != Pending {
		t.Fatalf("state = %v", l.At(slot).State)
	}
	if got := l.Ack(slot); got != hw.IRQVTimer {
		t.Fatalf("ack returned %v", got)
	}
	if l.At(slot).State != Active {
		t.Fatalf("state after ack = %v", l.At(slot).State)
	}
	l.EOI(slot)
	if l.At(slot).Valid() {
		t.Fatal("slot live after EOI")
	}
}

func TestInjectIdempotentWhilePending(t *testing.T) {
	var l ListRegs
	s1 := l.Inject(hw.IRQVTimer, false)
	s2 := l.Inject(hw.IRQVTimer, false)
	if s1 != s2 {
		t.Fatalf("re-inject allocated new slot: %d vs %d", s1, s2)
	}
	if l.LiveCount() != 1 {
		t.Fatalf("live = %d", l.LiveCount())
	}
	// Once active, a new edge may be injected into another slot.
	l.Ack(s1)
	s3 := l.Inject(hw.IRQVTimer, false)
	if s3 == s1 {
		t.Fatal("active slot reused for new pending edge")
	}
}

func TestInjectFullList(t *testing.T) {
	var l ListRegs
	for i := 0; i < NumListRegs; i++ {
		if slot := l.Inject(hw.SPIBase+hw.IRQ(i), false); slot < 0 {
			t.Fatalf("inject %d failed", i)
		}
	}
	if slot := l.Inject(hw.SPIBase+99, false); slot != -1 {
		t.Fatal("inject into full list succeeded")
	}
	if l.LiveCount() != NumListRegs || l.PendingCount() != NumListRegs {
		t.Fatal("counts wrong")
	}
}

func TestHighestPendingPriority(t *testing.T) {
	var l ListRegs
	l.Inject(hw.SPIBase+5, false)
	lowSlot := l.Inject(hw.IRQVTimer, false) // INTID 27 < 37
	if got := l.HighestPending(); got != lowSlot {
		t.Fatalf("highest pending slot = %d, want %d", got, lowSlot)
	}
	l.Ack(lowSlot)
	if got := l.HighestPending(); got == lowSlot {
		t.Fatal("active slot reported pending")
	}
	var empty ListRegs
	if empty.HighestPending() != -1 {
		t.Fatal("empty list reported pending")
	}
}

func TestAckEOIMisusePanics(t *testing.T) {
	var l ListRegs
	slot := l.Inject(hw.IRQVTimer, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EOI of pending slot did not panic")
			}
		}()
		l.EOI(slot)
	}()
	l.Ack(slot)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double ack did not panic")
			}
		}()
		l.Ack(slot)
	}()
}

func TestVisibleSnapshotFiltersHidden(t *testing.T) {
	var l ListRegs
	l.Inject(hw.IRQVTimer, true) // RMM-managed, hidden from host
	l.Inject(hw.SPIBase+1, false)
	vis := l.VisibleSnapshot()
	if len(vis) != 1 || vis[0].IntID != hw.SPIBase+1 {
		t.Fatalf("visible = %+v", vis)
	}
}

func TestMergeHostListPreservesHidden(t *testing.T) {
	var l ListRegs
	l.Inject(hw.IRQVTimer, true)
	l.Inject(hw.SPIBase+1, false) // stale host entry, will be replaced
	rejected := l.MergeHostList([]ListReg{
		{IntID: hw.SPIBase + 2, State: Pending},
		{IntID: hw.SPIBase + 3, State: Pending},
	})
	if len(rejected) != 0 {
		t.Fatalf("rejected = %v", rejected)
	}
	if l.LiveCount() != 3 {
		t.Fatalf("live = %d, want 3 (1 hidden + 2 host)", l.LiveCount())
	}
	// Hidden vtimer entry survives the merge.
	foundHidden := false
	for i := 0; i < NumListRegs; i++ {
		r := l.At(i)
		if r.Valid() && r.Hidden && r.IntID == hw.IRQVTimer {
			foundHidden = true
		}
		if r.Valid() && !r.Hidden && r.IntID == hw.SPIBase+1 {
			t.Fatal("stale host entry survived merge")
		}
	}
	if !foundHidden {
		t.Fatal("hidden entry lost in merge")
	}
}

func TestMergeHostListOverflow(t *testing.T) {
	var l ListRegs
	for i := 0; i < NumListRegs-1; i++ {
		l.Inject(hw.SPIBase+hw.IRQ(100+i), true) // hog slots with hidden entries
	}
	rejected := l.MergeHostList([]ListReg{
		{IntID: hw.SPIBase + 1, State: Pending},
		{IntID: hw.SPIBase + 2, State: Pending},
	})
	if len(rejected) != 1 || rejected[0].IntID != hw.SPIBase+2 {
		t.Fatalf("rejected = %+v", rejected)
	}
}

func TestListRegsProperty(t *testing.T) {
	// Property: live count never exceeds NumListRegs; ack/EOI round trips
	// return the list to its prior live count minus one.
	f := func(irqs []uint8) bool {
		var l ListRegs
		for _, raw := range irqs {
			irq := hw.SPIBase + hw.IRQ(raw%64)
			before := l.LiveCount()
			slot := l.Inject(irq, raw%2 == 0)
			if l.LiveCount() > NumListRegs {
				return false
			}
			if slot == -1 && before != NumListRegs && l.PendingCount() == 0 {
				return false
			}
		}
		// Drain everything.
		for {
			s := l.HighestPending()
			if s < 0 {
				break
			}
			l.Ack(s)
			l.EOI(s)
		}
		return l.PendingCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLRStateStrings(t *testing.T) {
	for s, want := range map[LRState]string{
		Invalid: "invalid", Pending: "pending", Active: "active", PendingActive: "pending+active",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}
