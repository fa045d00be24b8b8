package planner

import (
	"testing"

	"coregap/internal/hw"
)

func TestBeginCompleteRebind(t *testing.T) {
	p := New(8)
	a, _ := p.Admit("vm", 2) // cores 1,2
	from := a.GuestCores[0]

	if err := p.BeginRebind("vm", 5); err != nil {
		t.Fatal(err)
	}
	if len(a.GuestCores) != 3 {
		t.Fatalf("transition state should own 3 cores, has %v", a.GuestCores)
	}
	if p.free[5] {
		t.Fatal("reserved core still free")
	}
	if err := p.CompleteRebind("vm", from); err != nil {
		t.Fatal(err)
	}
	if len(a.GuestCores) != 2 || !p.free[from] {
		t.Fatalf("post-rebind state wrong: %v", a.GuestCores)
	}
}

func TestRebindValidationErrors(t *testing.T) {
	p := New(8)
	p.Admit("vm", 2)
	if err := p.BeginRebind("ghost", 5); err != ErrUnknownVM {
		t.Fatalf("unknown vm: %v", err)
	}
	if err := p.BeginRebind("vm", 1); err != ErrCoreNotFree {
		t.Fatalf("occupied target: %v", err)
	}
	if err := p.CompleteRebind("vm", 7); err != ErrCoreNotOwned {
		t.Fatalf("unowned from: %v", err)
	}
	if err := p.BeginRebind("vm", 5); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortRebind("vm", 5); err != nil {
		t.Fatal(err)
	}
	if !p.free[5] {
		t.Fatal("abort did not free the target")
	}
}

func TestCompactionPlanEliminatesFragmentation(t *testing.T) {
	p := New(12)
	p.Admit("a", 3) // 1-3
	p.Admit("b", 3) // 4-6
	p.Admit("c", 3) // 7-9
	p.Release("b")  // hole at 4-6

	if p.Fragmentation() == 0 {
		t.Fatal("expected fragmentation after release")
	}
	moves := p.CompactionPlan()
	if len(moves) == 0 {
		t.Fatal("no compaction moves proposed")
	}
	for _, m := range moves {
		if m.To >= m.From {
			t.Fatalf("move %v does not compact downward", m)
		}
		if err := p.BeginRebind(m.VM, m.To); err != nil {
			t.Fatalf("apply %v: %v", m, err)
		}
		if err := p.CompleteRebind(m.VM, m.From); err != nil {
			t.Fatalf("complete %v: %v", m, err)
		}
	}
	if f := p.Fragmentation(); f != 0 {
		t.Fatalf("fragmentation after compaction = %v, want 0", f)
	}
	// And a VM the size of the original hole now fits contiguously.
	d, err := p.Admit("d", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.GuestCores); i++ {
		if d.GuestCores[i] != d.GuestCores[i-1]+1 {
			t.Fatalf("post-compaction admit not contiguous: %v", d.GuestCores)
		}
	}
}

func TestCompactionPlanEmptyWhenCompact(t *testing.T) {
	p := New(8)
	p.Admit("a", 3)
	if moves := p.CompactionPlan(); len(moves) != 0 {
		t.Fatalf("compact layout produced moves: %v", moves)
	}
}

func TestMoveString(t *testing.T) {
	m := Move{VM: "x", From: hw.CoreID(5), To: hw.CoreID(2)}
	if m.String() != "x: core 5 -> 2" {
		t.Fatalf("move string = %q", m.String())
	}
}
