package core

import (
	"fmt"
	"sync"

	"coregap/internal/granule"
	"coregap/internal/guest"
	"coregap/internal/host"
	"coregap/internal/hw"
	"coregap/internal/rmm"
	"coregap/internal/rpc"
	"coregap/internal/sim"
	"coregap/internal/smc"
	"coregap/internal/uarch"
	"coregap/internal/vmm"
)

// VM is one guest, in either execution mode.
type VM struct {
	node *Node
	name string
	prog guest.Program

	domain uarch.DomainID
	// rd is the host's handle for the CVM's realm; realm is the
	// monitor's own record of it, read for the domain and attestation
	// (nil in SharedCore mode).
	rd     granule.PA
	realm  *rmm.Realm
	VMM    *vmm.VMM
	assign *assignment

	vcpus []*VCPU

	// wakeup is this VM's host core's wake-up thread (shared between
	// co-located VMs; owned by the node).
	wakeup *host.Thread

	// vipiSentAt timestamps in-flight guest IPIs per destination vCPU,
	// for the Table 3 deliver-and-acknowledge latency measurement.
	vipiSentAt []sim.Time

	// The VM's counters in the engine bank and its latency-metric
	// names, resolved once per VM instead of built per event.
	met          *vmCounters
	runToRunName string
	vipiLatName  string
}

// vmCounters are one VM's counters in the engine's counter bank, named
// <vm>.<counter>. They are registered the first time a VM of a given
// name is built and memoized by that name (vmCounterIDs), so a pooled
// trial rebuilding the same VMs does no registry work.
type vmCounters struct {
	exitsTotal     sim.CounterID
	exitsInterrupt sim.CounterID
	exits          [numExitReasons]sim.CounterID
	ticks          sim.CounterID
	ticksDelegated sim.CounterID
	vipiDelegated  sim.CounterID
	rebindOK       sim.CounterID
	rebindFailed   sim.CounterID
}

var vmCounterMemo = struct {
	sync.Mutex
	byName map[string]*vmCounters
}{byName: make(map[string]*vmCounters)}

// vmCounterIDs returns the counters of the VM named name, registering
// them on the first call for that name.
func vmCounterIDs(name string) *vmCounters {
	vmCounterMemo.Lock()
	defer vmCounterMemo.Unlock()
	if c, ok := vmCounterMemo.byName[name]; ok {
		return c
	}
	def := func(counter string) sim.CounterID { return sim.DefineCounter(name + "." + counter) }
	c := &vmCounters{
		exitsTotal:     def("exits.total"),
		exitsInterrupt: def("exits.interrupt"),
		ticks:          def("ticks"),
		ticksDelegated: def("ticks.delegated"),
		vipiDelegated:  def("vipi.delegated"),
		rebindOK:       def("rebind.ok"),
		rebindFailed:   def("rebind.failed"),
	}
	for r := range c.exits {
		c.exits[r] = def("exits." + ExitReason(r).String())
	}
	vmCounterMemo.byName[name] = c
	return c
}

// assignment is the planner decision realized on the node.
type assignment struct {
	guestCores []hw.CoreID
	hostCore   hw.CoreID
}

// Name reports the VM name.
func (vm *VM) Name() string { return vm.name }

// Domain reports the guest's security domain.
func (vm *VM) Domain() uarch.DomainID { return vm.domain }

// Realm reports the CVM's realm (nil for the shared-core baseline).
func (vm *VM) Realm() *rmm.Realm { return vm.realm }

// VCPUs reports the virtual CPUs.
func (vm *VM) VCPUs() []*VCPU { return vm.vcpus }

// HostCore reports the core servicing this VM's host-side threads
// (NoCore in the shared baseline, where they float).
func (vm *VM) HostCore() hw.CoreID {
	if vm.assign == nil {
		return hw.NoCore
	}
	return vm.assign.hostCore
}

// GuestCores reports the dedicated cores (nil in the shared baseline).
func (vm *VM) GuestCores() []hw.CoreID {
	if vm.assign == nil {
		return nil
	}
	return vm.assign.guestCores
}

// NewVM builds a guest running prog on vcpus virtual CPUs and starts it.
//
// In Gapped mode this performs the full paper §4.2 sequence: planner
// admission, CPU hotplug with realm handoff, realm construction through
// RMI (granule delegation, RD/REC creation, initial memory measurement,
// activation), vCPU-to-core binding, and the first run calls. In
// SharedCore mode it builds a plain KVM VM with floating vCPU threads.
func (n *Node) NewVM(name string, vcpus int, prog guest.Program) (*VM, error) {
	vm := &VM{
		node: n, name: name, prog: prog, vipiSentAt: make([]sim.Time, vcpus),
		met:          vmCounterIDs(name),
		runToRunName: name + ".runtorun",
		vipiLatName:  name + ".vipi.latency",
	}

	switch n.Opts.Mode {
	case Gapped:
		if err := n.setupGapped(vm, vcpus); err != nil {
			return nil, err
		}
	default:
		n.setupShared(vm, vcpus)
	}
	n.vms = append(n.vms, vm)
	return vm, nil
}

// setupGapped is the §4.2 boot of a confidential VM, top to bottom.
// Call order is load-bearing: thread creation, granule allocation and
// event scheduling fix the trial's event sequence.
func (n *Node) setupGapped(vm *VM, vcpus int) error {
	// 1. Admission control and placement.
	a, err := n.Plan.Admit(vm.name, vcpus)
	if err != nil {
		return err
	}
	vm.assign = &assignment{guestCores: a.GuestCores, hostCore: a.HostCore}

	// 2. Realm construction via RMI: rd, rtt root, vcpus, IPA bits, flags.
	rd, rtt := n.allocGranule(), n.allocGranule()
	if err := n.rmi(smc.RMIRealmCreate, uint64(rd), uint64(rtt), uint64(vcpus), 40, 0); err != nil {
		n.Plan.Release(vm.name)
		return err
	}
	vm.rd = rd
	vm.realm = n.Mon.Realm(rd)
	vm.domain = vm.realm.Domain()

	// Initial memory: build stage-2 tables and map a measured boot image.
	base := granule.IPA(0x8000_0000)
	for level := 1; level <= 3; level++ {
		if err := n.rmi(smc.RMIRttCreate, uint64(rd), uint64(base), uint64(level), uint64(n.allocGranule())); err != nil {
			return fmt.Errorf("core: rtt setup: %w", err)
		}
	}
	for i := 0; i < 4; i++ {
		ipa := base + granule.IPA(i*granule.Size)
		if err := n.rmi(smc.RMIDataCreate, uint64(rd), uint64(ipa), uint64(n.allocGranule())); err != nil {
			return fmt.Errorf("core: data create: %w", err)
		}
	}

	// 3. VMM process, pinned to the assigned host core (§5.1: "pinning
	// all VMM threads on the host to a single additional core").
	vm.VMM = vmm.New(vm.name, n.Kern, vmm.DefaultCosts(), int(a.HostCore))
	vm.VMM.SetInject(vm.injectFromHost)

	// 4. vCPU contexts, threads and run-call mailboxes.
	vm.wakeup = n.wakeupThreadFor(a.HostCore)
	for i := 0; i < vcpus; i++ {
		recPA := n.allocGranule()
		if err := n.rmi(smc.RMIRecCreate, uint64(rd), uint64(recPA)); err != nil {
			return err
		}
		v := newVCPU(vm, i, a.GuestCores[i])
		v.recPA = recPA
		v.rec = n.Mon.Rec(recPA)
		v.mb = rpc.NewMailbox(n.Eng, fmt.Sprintf("%s/vcpu%d", vm.name, i))
		// vCPU threads run FIFO so they preempt VMM threads when woken
		// (§4.3); the busy-wait ablation uses yield-polling normal
		// threads as Quarantine does — FIFO pollers would starve the
		// I/O emulation threads outright.
		class := host.ClassFIFO
		if n.Opts.BusyWaitRPC {
			class = host.ClassNormal
		}
		v.thread = n.Kern.NewThread(fmt.Sprintf("%s/vcpu%d", vm.name, i),
			class, a.HostCore)
		vm.vcpus = append(vm.vcpus, v)
	}
	if err := n.rmi(smc.RMIRealmActivate, uint64(rd)); err != nil {
		return err
	}

	// 5. Hotplug the guest cores out of the host and hand them to the
	// monitor; when each handoff completes, issue the first run call.
	for _, v := range vm.vcpus {
		v := v
		err := n.Kern.OfflineCore(v.dcore, func() {
			// Only an id the machine lacks fails, and the planner's
			// cores are the machine's.
			_ = n.rmi(smc.RMICoreDedicate, uint64(v.dcore))
			v.installRMMCoreHandler()
			v.postRunCall()
		})
		if err != nil {
			return fmt.Errorf("core: hotplug of core %d: %w", v.dcore, err)
		}
	}

	// Busy-wait ablation: vCPU threads poll their mailboxes instead of
	// blocking on IPI-driven wakeups.
	if n.Opts.BusyWaitRPC {
		for _, v := range vm.vcpus {
			v.poll = host.Poll{Slice: n.P.BusyPollSlice, Action: v.hostPollOnce, ReadyAt: v.mb.ResponseVisibleAt}
			n.Kern.SetIdlePoll(v.thread, &v.poll)
			// Seed the polling loop.
			n.Kern.Submit(v.thread, "poll-seed", 1, nil)
		}
	}
	return nil
}

func (n *Node) setupShared(vm *VM, vcpus int) {
	vm.domain = uarch.Guest(100 + len(n.vms)) // plain VMs get distinct domains too
	vm.VMM = vmm.New(vm.name, n.Kern, vmm.DefaultCosts(), -1)
	vm.VMM.SetInject(vm.injectFromHost)
	for i := 0; i < vcpus; i++ {
		v := newVCPU(vm, i, hw.NoCore)
		v.thread = n.Kern.NewThread(fmt.Sprintf("%s/vcpu%d", vm.name, i),
			host.ClassNormal, hw.NoCore)
		v.thread.SetDomain(vm.domain, n.P.GuestFootprint)
		vm.vcpus = append(vm.vcpus, v)
	}
	for _, v := range vm.vcpus {
		v.startShared()
	}
}

// injectFromHost is the VMM's event-delivery callback; it routes device
// completions through the mode-appropriate interrupt path.
//
// Packet arrivals follow NAPI semantics: the data is already in guest
// memory (DMA), so a *busy* guest picks it up on its next service-loop
// iteration without any interrupt; only an idle (WFI/blocked) guest needs
// one. This matters enormously under core gapping, where every injection
// into a running vCPU costs a host-requested exit (Fig. 5).
func (vm *VM) injectFromHost(vcpu int, ev guest.Event) {
	if vcpu < 0 || vcpu >= len(vm.vcpus) {
		return
	}
	v := vm.vcpus[vcpu]
	if v.halted || v.stopped {
		return
	}
	n := vm.node
	p := &n.P

	if v.gapped() {
		if ev.Kind == guest.EvPacket && v.inGuest && !v.idle && !v.waitIO {
			vm.prog.Deliver(vcpu, ev) // NAPI: ring polled by the busy guest
			return
		}
		v.hostRequestInjection(ev)
		return
	}

	// Shared-core: the device's IRQ/softirq work lands on whichever core
	// the vCPU occupies, stealing guest time and polluting its state.
	// NAPI processing scales with the delivered data (per-64KiB batches).
	if core := v.thread.Core(); core != hw.NoCore && n.Kern.Running(core) == v.thread {
		batches := sim.Duration(1 + ev.Bytes/(64<<10))
		n.Mach.Core(core).RecordExecution(uarch.DomainHost, 0.05, 0)
		n.Kern.StealCPU(core, batches*p.HostIRQWork, nil)
	}
	if ev.Kind == guest.EvPacket && !v.idle && !v.waitIO && v.thread.State() != host.Blocked {
		vm.prog.Deliver(vcpu, ev) // NAPI on the baseline too
		return
	}
	v.sharedInject(ev)
}

// wakeupThreadFor returns (creating on first use) the wake-up thread for
// a host core, and registers the exit-notification IPI handler that
// activates it (Fig. 4 steps 1-2).
func (n *Node) wakeupThreadFor(core hw.CoreID) *host.Thread {
	if n.wakeups == nil {
		n.wakeups = make(map[hw.CoreID]*wakeup)
		n.Kern.RegisterIRQ(hw.IPIGuestExit, func(c hw.CoreID) {
			if w := n.wakeups[c]; w != nil {
				// Activation pays the wake-up dispatch plus the scan.
				n.Kern.Submit(w.t, "scan", n.P.SchedWake+n.P.WakeupScan, w.scanFn)
			}
		})
	}
	if w, ok := n.wakeups[core]; ok {
		return w.t
	}
	w := &wakeup{t: n.Kern.NewThread(fmt.Sprintf("wakeup%d", core), host.ClassFIFO, core)}
	w.scanFn = func() { n.scanMailboxes(core) }
	n.wakeups[core] = w
	return w.t
}

// wakeup is one host core's wake-up thread and its scan callback, bound
// once per core.
type wakeup struct {
	t      *host.Thread
	scanFn func()
}

// scanMailboxes is the wake-up thread body: poll every RPC channel homed
// on this host core, unblocking the vCPU threads of stopped vCPUs
// (Fig. 4 steps 3-5), then suspend until the next IPI (step 6).
func (n *Node) scanMailboxes(core hw.CoreID) {
	for _, vm := range n.vms {
		if vm.assign == nil || vm.assign.hostCore != core {
			continue
		}
		for _, v := range vm.vcpus {
			v.hostPollOnce()
		}
	}
}

// StopVM destroys a gapped VM and returns its cores to the host —
// the reclaim path of §4.2.
func (n *Node) StopVM(vm *VM) error {
	for _, v := range vm.vcpus {
		v.shutdown()
	}
	if vm.realm != nil {
		if err := n.rmi(smc.RMIRealmDestroy, uint64(vm.rd)); err != nil {
			return err
		}
		for _, c := range vm.assign.guestCores {
			if err := n.rmi(smc.RMICoreReclaim, uint64(c)); err != nil {
				return err
			}
			if err := n.Kern.OnlineCore(c); err != nil {
				return err
			}
		}
		n.Plan.Release(vm.name)
	}
	return nil
}
