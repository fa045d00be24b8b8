// Package planner implements the user-mode core planner of §3: admission
// control for core-gapped CVMs, assignment of physical cores to guest
// vCPUs (the host keeps the rest), and anti-fragmentation placement
// so long-lived static bindings do not shred locality.
//
// It logically extends cluster-level VM allocators (Protean, Borg) down
// into a node and hardens the NUMA-affinity pinning existing VM
// schedulers already do: what used to be a performance hint is now an
// enforced, attested placement.
package planner

import (
	"errors"
	"fmt"
	"sort"

	"coregap/internal/hw"
)

// Errors.
var (
	ErrInsufficientCores = errors.New("planner: not enough free cores")
	ErrUnknownVM         = errors.New("planner: unknown VM")
)

// Assignment is the planner's decision for one CVM.
type Assignment struct {
	VM         string
	GuestCores []hw.CoreID // dedicated, one per vCPU
	HostCore   hw.CoreID   // where this VM's host-side threads are pinned
}

// hostCore is the boot core. It is never dedicated, and every VM's
// host-side threads are pinned to it.
const hostCore hw.CoreID = 0

// Planner tracks core ownership on one node.
type Planner struct {
	free     map[hw.CoreID]bool
	assigned map[string]*Assignment
}

// New builds a planner over cores [0, total). The boot core stays with
// the host; the rest start free.
func New(total int) *Planner {
	p := &Planner{
		free:     make(map[hw.CoreID]bool),
		assigned: make(map[string]*Assignment),
	}
	for i := 1; i < total; i++ {
		p.free[hw.CoreID(i)] = true
	}
	return p
}

// FreeCount reports unassigned cores.
func (p *Planner) FreeCount() int { return len(p.free) }

// Assignments reports current VMs, sorted by name.
func (p *Planner) Assignments() []*Assignment {
	names := make([]string, 0, len(p.assigned))
	for n := range p.assigned {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Assignment, len(names))
	for i, n := range names {
		out[i] = p.assigned[n]
	}
	return out
}

func sortedKeys(m map[hw.CoreID]bool) []hw.CoreID {
	out := make([]hw.CoreID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Admit performs admission control and placement for a CVM with the given
// vCPU count. It picks the lowest contiguous run of free cores (first-fit
// by address keeps fragmentation low and preserves cache/mesh locality),
// and binds the VM's host-side threads to the boot core.
func (p *Planner) Admit(vm string, vcpus int) (*Assignment, error) {
	if vcpus <= 0 {
		return nil, fmt.Errorf("planner: invalid vcpu count %d", vcpus)
	}
	if _, dup := p.assigned[vm]; dup {
		return nil, fmt.Errorf("planner: VM %q already admitted", vm)
	}
	if len(p.free) < vcpus {
		return nil, ErrInsufficientCores
	}
	frees := sortedKeys(p.free)

	// Prefer a contiguous window; fall back to the lowest free cores.
	cores := contiguousRun(frees, vcpus)
	if cores == nil {
		cores = frees[:vcpus]
	}
	for _, id := range cores {
		delete(p.free, id)
	}
	a := &Assignment{VM: vm, GuestCores: cores, HostCore: hostCore}
	p.assigned[vm] = a
	return a, nil
}

func contiguousRun(sortedFree []hw.CoreID, n int) []hw.CoreID {
	for i := 0; i+n <= len(sortedFree); i++ {
		if sortedFree[i+n-1]-sortedFree[i] == hw.CoreID(n-1) {
			return append([]hw.CoreID(nil), sortedFree[i:i+n]...)
		}
	}
	return nil
}

// Release returns a VM's cores to the free pool.
func (p *Planner) Release(vm string) error {
	a, ok := p.assigned[vm]
	if !ok {
		return ErrUnknownVM
	}
	for _, id := range a.GuestCores {
		p.free[id] = true
	}
	delete(p.assigned, vm)
	return nil
}

// Fragmentation reports 1 - (largest contiguous free run / total free):
// 0 when all free cores are contiguous, approaching 1 as the pool shreds.
func (p *Planner) Fragmentation() float64 {
	frees := sortedKeys(p.free)
	if len(frees) == 0 {
		return 0
	}
	longest, run := 1, 1
	for i := 1; i < len(frees); i++ {
		if frees[i] == frees[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run > longest {
			longest = run
		}
	}
	return 1 - float64(longest)/float64(len(frees))
}
