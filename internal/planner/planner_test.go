package planner

import (
	"errors"
	"testing"
	"testing/quick"

	"coregap/internal/hw"
)

func TestAdmitContiguousPlacement(t *testing.T) {
	p := New(16)
	a, err := p.Admit("vm1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.GuestCores) != 4 {
		t.Fatalf("cores = %v", a.GuestCores)
	}
	for i := 1; i < 4; i++ {
		if a.GuestCores[i] != a.GuestCores[i-1]+1 {
			t.Fatalf("not contiguous: %v", a.GuestCores)
		}
	}
	if a.HostCore != 0 {
		t.Fatalf("host core = %v", a.HostCore)
	}
	if p.FreeCount() != 16-1-4 {
		t.Fatalf("free = %d", p.FreeCount())
	}
}

func TestAdmitGuestCoresNeverIncludeHostPool(t *testing.T) {
	p := New(8)
	a, _ := p.Admit("vm", 7)
	for _, c := range a.GuestCores {
		if c == 0 {
			t.Fatal("guest got the host's core")
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	p := New(8) // 7 free
	if _, err := p.Admit("a", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit("b", 4); !errors.Is(err, ErrInsufficientCores) {
		t.Fatalf("overcommit: %v", err)
	}
	if _, err := p.Admit("b", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit("a", 1); err == nil {
		t.Fatal("duplicate admit")
	}
	if _, err := p.Admit("c", 0); err == nil {
		t.Fatal("zero vcpus")
	}
}

func TestReleaseReturnsCores(t *testing.T) {
	p := New(8)
	p.Admit("a", 4)
	if err := p.Release("a"); err != nil {
		t.Fatal(err)
	}
	if p.FreeCount() != 7 {
		t.Fatalf("free = %d", p.FreeCount())
	}
	if err := p.Release("a"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("double release: %v", err)
	}
	// Full capacity available again.
	if _, err := p.Admit("b", 7); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationMetric(t *testing.T) {
	p := New(9) // free: 1..8
	if f := p.Fragmentation(); f != 0 {
		t.Fatalf("fresh pool fragmentation = %v", f)
	}
	p.Admit("a", 2) // takes 1,2
	p.Admit("b", 2) // takes 3,4
	p.Admit("c", 2) // takes 5,6
	p.Release("b")  // free: 3,4,7,8 → two runs of 2
	if f := p.Fragmentation(); f != 0.5 {
		t.Fatalf("fragmentation = %v, want 0.5", f)
	}
}

func TestFirstFitReusesReleasedWindow(t *testing.T) {
	p := New(16)
	p.Admit("a", 4)
	p.Admit("b", 4)
	p.Release("a")
	c, _ := p.Admit("c", 4)
	if c.GuestCores[0] != 1 {
		t.Fatalf("first-fit should reuse the released window, got %v", c.GuestCores)
	}
}

func TestPlannerInvariantProperty(t *testing.T) {
	// Property: cores are never double-assigned; free+assigned+host = total.
	f := func(ops []uint8) bool {
		p := New(16)
		names := []string{"a", "b", "c", "d"}
		for _, op := range ops {
			vm := names[int(op)%len(names)]
			if op%2 == 0 {
				p.Admit(vm, int(op%5)+1)
			} else {
				p.Release(vm)
			}
		}
		owned := map[hw.CoreID]string{}
		owned[hostCore] = "host"
		for _, a := range p.Assignments() {
			for _, c := range a.GuestCores {
				if _, dup := owned[c]; dup {
					return false
				}
				owned[c] = a.VM
			}
		}
		return len(owned)+p.FreeCount() == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
