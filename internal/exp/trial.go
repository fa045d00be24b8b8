package exp

import (
	"fmt"
	"time"

	"coregap/internal/attack"

	"coregap/internal/core"
	"coregap/internal/guest"
	"coregap/internal/host"
	"coregap/internal/hw"
	"coregap/internal/rpc"
	"coregap/internal/sim"
	"coregap/internal/trace"
	"coregap/internal/uarch"
	"coregap/internal/vmm"
)

// Trial is the result of executing one ScenarioSpec: named scalar
// outcomes, optional string-valued outcomes, run metadata, the engine
// counter bank, and (for node-based workloads) the latency metric set
// for ad-hoc inspection.
//
// Everything except Meta.Wall and Metrics is a pure function of the
// spec, which is what makes parallel execution bit-identical to serial.
type Trial struct {
	Spec   ScenarioSpec
	Values map[string]float64
	Labels map[string][]string
	Meta   trace.RunMeta
	// Windows holds the closed per-window latency summaries of every
	// windowed metric, keyed by metric name, when the spec set a
	// MetricsWindow. The stats are copied out of the (possibly pooled)
	// metric set at trial finish, so they stay valid after the worker's
	// context is recycled. Like Values, they are a pure function of the
	// spec: windows live on the absolute simulated-time grid.
	Windows map[string][]trace.WindowStat
	// Metrics is the node's latency metric set — histograms and
	// windows; every count is in Counters — nil for raw-transport
	// trials. Reducers must not depend on it; it exists for workbench
	// consumers (cmd/coregapctl -v). Only fresh-context execution
	// (Execute) populates it: under pooled execution the set belongs to
	// the worker's reusable TrialContext and is recycled by the next
	// trial, so ExecuteIn leaves it nil rather than handing out state
	// that will be rewound underneath the caller.
	Metrics *trace.Set
	// Counters is the trial's engine counter bank — every counter that
	// fired, by name: machine-wide perf counters (world switches, IPIs,
	// SMC calls, …) and per-VM ones (<vm>.exits.total, …). Copied out
	// of the (possibly pooled) engine at trial finish.
	// Reducers must not depend on it: it is diagnostic, not artifact.
	Counters map[string]uint64
	// TraceEvents is the trial's captured sim-time trace, chronological,
	// populated only when Spec.Trace was set. Like Counters it is copied
	// out before the pooled engine is recycled.
	TraceEvents []sim.TraceEvent
}

// V reports the named value (0 when absent).
func (t Trial) V(key string) float64 { return t.Values[key] }

// Dur reports the named value as a simulated duration.
func (t Trial) Dur(key string) sim.Duration { return sim.Duration(t.Values[key]) }

// Execute runs one scenario on a private, freshly allocated simulation
// engine and reduces it to a Trial. A modelling failure (workload
// stuck, horizon exceeded) is returned as an error, never a panic, so a
// parallel runner can surface it with the trial's identity attached.
func Execute(spec ScenarioSpec) (Trial, error) { return ExecuteIn(nil, spec) }

// ExecuteIn is Execute running inside a worker's pooled TrialContext:
// the scenario is rebuilt on the context's rewound engine/machine
// instead of allocating a new object graph. A nil context falls back to
// fresh construction. For any spec, pooled and fresh execution return
// byte-identical trials (Metrics aside, see Trial); the runner's
// determinism guarantee rests on that equivalence, which
// TestPooledExecuteDeterminism enforces end to end.
func ExecuteIn(ctx *TrialContext, spec ScenarioSpec) (t Trial, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial %s [%s]: %v", spec.ID, spec.Config, r)
		}
	}()
	t = Trial{
		Spec:   spec,
		Values: make(map[string]float64),
		Labels: make(map[string][]string),
		Meta: trace.RunMeta{
			Trial:  spec.ID,
			Config: string(spec.Config),
			Seed:   spec.Seed,
		},
	}
	start := time.Now()
	switch spec.Workload.Kind {
	case WLCoreMark:
		err = t.runCoreMark(ctx, spec)
	case WLCoreMarkPro:
		err = t.runCoreMarkPro(ctx, spec)
	case WLIPIBench:
		err = t.runIPIBench(ctx, spec)
	case WLNetPIPE:
		err = t.runNetPIPE(ctx, spec)
	case WLIOzone:
		err = t.runIOzone(ctx, spec)
	case WLRedis:
		err = t.runRedis(ctx, spec)
	case WLOpenLoop:
		err = t.runOpenLoop(ctx, spec)
	case WLKBuild:
		err = t.runKBuild(ctx, spec)
	case WLNullRMMAsync:
		err = t.runNullAsync(ctx, spec)
	case WLNullRMMSync:
		err = t.runNullSync(ctx, spec)
	case WLNullRMMSameCore:
		err = t.runNullSameCore(ctx, spec)
	case WLBattery:
		err = t.runBattery(ctx, spec)
	case WLPTChurn:
		err = t.runPTChurn(ctx, spec)
	default:
		err = fmt.Errorf("trial %s: unknown workload kind %q", spec.ID, spec.Workload.Kind)
	}
	t.Meta.Wall = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("trial %s [%s]: %w", spec.ID, spec.Config, err)
	}
	return t, nil
}

// newNode builds the trial's machine — inside the pooled context when
// one is supplied — and retains the metric set only for fresh nodes.
func (t *Trial) newNode(ctx *TrialContext, spec ScenarioSpec) *core.Node {
	n := ctx.node(spec)
	if ctx == nil {
		t.Metrics = n.Met
	}
	traceOn(n.Eng, spec)
	return n
}

// traceOn arms the engine's flight recorder when the spec asks for it.
// Pooled engines come back from Reset with tracing detached, so this is
// the single place a trial's trace state is decided.
func traceOn(eng *sim.Engine, spec ScenarioSpec) {
	if spec.Trace {
		eng.EnableTracing(0)
	}
}

// captureObs copies the engine's counter bank — and, when tracing was
// armed, its event buffer — into the trial. It must run before the
// worker's pooled context is recycled by the next trial.
func (t *Trial) captureObs(eng *sim.Engine) {
	eng.Counters(func(name string, v uint64) {
		if t.Counters == nil {
			t.Counters = make(map[string]uint64)
		}
		t.Counters[name] = v
	})
	if tr := eng.Trace(); tr != nil {
		t.TraceEvents = tr.Events(nil)
	}
}

// Table 4's exit counts: vm0's counters in the engine bank.
var (
	cVM0Exits    = sim.DefineCounter("vm0.exits.total")
	cVM0IRQExits = sim.DefineCounter("vm0.exits.interrupt")
)

// finishNode captures engine statistics, Table 4's exit counts,
// and — when the trial ran with a metrics window — the closed window
// summaries of every windowed metric.
func (t *Trial) finishNode(n *core.Node) {
	t.Meta.Simulated = sim.Duration(n.Eng.Now())
	t.Meta.Events = n.Eng.EventsFired()
	if names := n.Met.WindowedNames(); len(names) > 0 {
		t.Windows = make(map[string][]trace.WindowStat, len(names))
		for _, name := range names {
			w := n.Met.Windowed(name)
			w.Flush(n.Eng.Now())
			t.Windows[name] = append([]trace.WindowStat(nil), w.Stats()...)
		}
	}
	if exits := n.Eng.CounterValue(cVM0Exits); exits > 0 {
		t.Values["exits.total"] = float64(exits)
		t.Values["exits.interrupt"] = float64(n.Eng.CounterValue(cVM0IRQExits))
	}
	if len(n.VMs()) > 0 && n.Opts.Mode == core.Gapped {
		vm := n.VMs()[0]
		if tok, err := n.Mon.Token(vm.Realm(), [32]byte{1}); err == nil {
			t.Values["attest.coregapped"] = b2f(tok.CoreGapped)
			t.Labels["attest.rim"] = []string{tok.RIM.String()}
		}
	}
	t.captureObs(n.Eng)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func horizonOr(spec ScenarioSpec, def sim.Duration) sim.Duration {
	if spec.Horizon > 0 {
		return spec.Horizon
	}
	return def
}

// runCoreMark boots Workload.VMs CoreMark-PRO guests of VCPUs vCPUs each
// and reports the aggregate score plus the §5.2 run-to-run statistics.
func (t *Trial) runCoreMark(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	vms := w.VMs
	if vms <= 0 {
		vms = 1
	}
	n := t.newNode(ctx, spec)
	marks := make([]*guest.CoreMark, vms)
	for i := 0; i < vms; i++ {
		marks[i] = guest.NewCoreMark(w.VCPUs, w.Work)
		if _, err := n.NewVM(fmt.Sprintf("vm%d", i), w.VCPUs, marks[i]); err != nil {
			return fmt.Errorf("coremark setup: %w", err)
		}
	}
	end := n.RunUntilAllHalted(horizonOr(spec, sim.Duration(200)*w.Work))
	agg := 0.0
	for i, cm := range marks {
		if !cm.Done() {
			return fmt.Errorf("coremark vm%d did not finish within the horizon", i)
		}
		agg += cm.Score(sim.Duration(end))
	}
	t.Values["score"] = agg
	if h := n.Met.Hist("vm0.runtorun"); h.Count() > 0 {
		t.Values["runtorun.count"] = float64(h.Count())
		t.Values["runtorun.mean.ns"] = float64(h.Mean())
		t.Values["runtorun.stddev.ns"] = float64(h.Stddev())
	}
	t.finishNode(n)
	return nil
}

// runCoreMarkPro runs the per-phase CoreMark-PRO harness (geomean mark).
func (t *Trial) runCoreMarkPro(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	n := t.newNode(ctx, spec)
	cmp := guest.NewCoreMarkPro(w.VCPUs, w.Work, func() sim.Time { return n.Eng.Now() })
	if _, err := n.NewVM("vm0", w.VCPUs, cmp); err != nil {
		return err
	}
	n.RunUntilAllHalted(horizonOr(spec, sim.Duration(400)*w.Work))
	t.Values["mark"] = cmp.Mark()
	for name, score := range cmp.PhaseScores() {
		t.Values["phase."+name] = score
	}
	t.finishNode(n)
	return nil
}

// runIPIBench runs the two-vCPU IPI ping-pong and reports vIPI latency.
func (t *Trial) runIPIBench(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	n := t.newNode(ctx, spec)
	b := guest.NewIPIBench(w.Rounds)
	if _, err := n.NewVM("vm0", 2, b); err != nil {
		return err
	}
	n.RunUntilAllHalted(horizonOr(spec, 30*sim.Second))
	h := n.Met.Hist("vm0.vipi.latency")
	if h.Count() == 0 {
		return fmt.Errorf("ipibench delivered no vIPIs")
	}
	t.Values["vipi.count"] = float64(h.Count())
	t.Values["vipi.mean.ns"] = float64(h.Mean())
	t.Values["vipi.p99.ns"] = float64(h.Percentile(99))
	t.finishNode(n)
	return nil
}

// runNetPIPE runs one NetPIPE ping-pong configuration and reports the
// mean round-trip time.
func (t *Trial) runNetPIPE(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	n := t.newNode(ctx, spec)
	np := guest.NewNetPIPE(w.Dev, w.Bytes, w.Rounds)
	vm, err := n.NewVM("vm0", 1, np)
	if err != nil {
		return err
	}
	peer := vmm.NewPeer(n.Eng, vm.VMM.Costs(), n.Met)
	pp := vmm.NewPingPong(peer, w.Bytes, w.Rounds, "netpipe.rtt", nil)
	switch w.Dev {
	case guest.VirtioNet:
		peer.Connect(vm.VMM.Net.DeliverToGuest)
		vm.VMM.Net.ConnectPeer(pp.OnEcho)
	default:
		peer.Connect(vm.VMM.VF.DeliverToGuest)
		vm.VMM.VF.ConnectPeer(pp.OnEcho)
	}
	// Let the VM boot (hotplug handoff takes ~2 ms) before load starts.
	n.Eng.After(5*sim.Millisecond, "start-netpipe", pp.Start)
	n.RunUntilAllHalted(horizonOr(spec, 120*sim.Second))
	// The guest halts after transmitting its final echo; drain the wire
	// so the client sees it. Large messages can take longer than one
	// step to cross it, so keep draining, for at most a second, while
	// rounds are outstanding.
	const drainStep = 5 * sim.Millisecond
	n.Eng.RunFor(drainStep)
	for drained := drainStep; pp.Done() < w.Rounds && drained < sim.Second; drained += drainStep {
		n.Eng.RunFor(drainStep)
	}
	if pp.Done() < w.Rounds {
		return fmt.Errorf("netpipe: only %d/%d rounds (%v %dB)", pp.Done(), w.Rounds, w.Dev, w.Bytes)
	}
	t.Values["rtt.ns"] = float64(n.Met.Hist("netpipe.rtt").Mean())
	t.finishNode(n)
	return nil
}

// runIOzone runs the synchronous O_DIRECT workload against virtio-blk.
func (t *Trial) runIOzone(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	n := t.newNode(ctx, spec)
	z := guest.NewIOzone(w.Bytes, w.Write, w.Total)
	if _, err := n.NewVM("vm0", 1, z); err != nil {
		return err
	}
	startT := n.Eng.Now()
	end := n.RunUntilAllHalted(horizonOr(spec, 600*sim.Second))
	if z.Moved() < w.Total {
		return fmt.Errorf("iozone stalled: %d/%d bytes (record %d)", z.Moved(), w.Total, w.Bytes)
	}
	t.Values["mibs"] = z.Throughput(end.Sub(startT))
	t.finishNode(n)
	return nil
}

// runRedis drives the closed-loop Redis load: boot, 100 ms warm-up, then
// a steady-state measurement window. Latency percentiles cover the whole
// run (the warm-up is a small fraction of the window and biases all
// configurations identically).
func (t *Trial) runRedis(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	n := t.newNode(ctx, spec)
	r := guest.NewRedis(w.Dev)
	vm, err := n.NewVM("vm0", w.VCPUs, r)
	if err != nil {
		return err
	}
	peer := vmm.NewPeer(n.Eng, vm.VMM.Costs(), n.Met)
	peer.Connect(vm.VMM.VF.DeliverToGuest)
	lg := vmm.NewLoadGen(peer, w.Clients, w.Bytes,
		func(c int) int { return guest.EncodeOpTag(w.Op, c) }, "redis.latency")
	vm.VMM.VF.ConnectPeer(lg.OnResponse)

	n.Eng.After(5*sim.Millisecond, "start-load", lg.Start)
	n.Eng.RunUntil(sim.Time(105 * sim.Millisecond))
	warmupServed := lg.Served()
	n.Eng.RunUntil(sim.Time(105*sim.Millisecond + w.Window))
	served := lg.Served() - warmupServed
	lg.Stop()

	hist := n.Met.Hist("redis.latency")
	t.Values["krps"] = float64(served) / w.Window.Seconds() / 1000
	t.Values["lat.mean.ns"] = float64(hist.Mean())
	t.Values["lat.p95.ns"] = float64(hist.Percentile(95))
	t.Values["lat.p99.ns"] = float64(hist.Percentile(99))
	t.finishNode(n)
	return nil
}

// runKBuild runs the parallel kernel build and reports its wall time.
func (t *Trial) runKBuild(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	n := t.newNode(ctx, spec)
	kb := guest.NewKBuild(w.Jobs, w.VCPUs, 250*sim.Millisecond, n.Eng.Source("kbuild"))
	if _, err := n.NewVM("vm0", w.VCPUs, kb); err != nil {
		return err
	}
	end := n.RunUntilAllHalted(horizonOr(spec, 3600*sim.Second))
	if kb.Finished() < w.Jobs {
		return fmt.Errorf("kbuild incomplete: %d/%d jobs", kb.Finished(), w.Jobs)
	}
	t.Values["build.ns"] = float64(end)
	t.finishNode(n)
	return nil
}

// runNullAsync measures the full Fig. 4 asynchronous null-call path:
// mailbox post, RMM pickup on the remote core, completion, exit IPI,
// wake-up thread scan, vCPU thread wake.
func (t *Trial) runNullAsync(ctx *TrialContext, spec ScenarioSpec) error {
	p := core.DefaultParams()
	rounds := spec.Workload.Rounds
	parts := ctx.kernelParts(2, spec.Seed)
	eng, mach := parts.Eng, parts.Mach
	traceOn(eng, spec)
	kern := host.NewKernel(parts.Mach)
	mb := rpc.NewMailbox(eng, "null")
	hist := trace.AcquireHist("null.async")
	defer trace.ReleaseHist(hist)

	hostCore, rmmCore := hw.CoreID(0), hw.CoreID(1)
	// The RMM side: a polling loop on the dedicated core that answers
	// null calls immediately and raises the exit IPI. Every step of the
	// round trip is bound once here, not rebuilt per call.
	pickup := func() {
		if _, ok := mb.TryTake(); ok {
			mb.Complete("null-return", p.Transport.Prop)
			mach.SendIPI(rmmCore, hostCore, hw.IPIGuestExit)
		}
	}
	caller := kern.NewThread("vcpu-null", host.ClassFIFO, hostCore)
	wakeup := kern.NewThread("wakeup", host.ClassFIFO, hostCore)
	var postedAt sim.Time
	done := 0
	var post func()
	post = func() {
		postedAt = eng.Now()
		mb.Post("null-call", p.Transport.Prop)
		eng.After(p.Transport.PickupLatency(), "pickup", pickup)
	}
	// Wake the blocked caller (Fig. 4 step 5); the call returns in its
	// context.
	ret := func() {
		hist.Observe(eng.Now().Sub(postedAt))
		done++
		if done < rounds {
			post()
		}
	}
	scan := func() {
		if _, ok := mb.TryResponse(); ok {
			kern.Submit(caller, "return", p.SchedWake, ret)
		}
	}
	kern.RegisterIRQ(hw.IPIGuestExit, func(c hw.CoreID) {
		kern.Submit(wakeup, "scan", p.SchedWake+p.WakeupScan, scan)
	})
	post()
	eng.Run()
	if hist.Count() < rounds {
		return fmt.Errorf("async null calls stalled at %d/%d", hist.Count(), rounds)
	}
	t.Values["ns"] = float64(hist.Mean())
	t.Meta.Simulated = sim.Duration(eng.Now())
	t.Meta.Events = eng.EventsFired()
	t.captureObs(eng)
	return nil
}

// runNullSync measures the busy-wait synchronous mailbox round trip.
func (t *Trial) runNullSync(ctx *TrialContext, spec ScenarioSpec) error {
	p := core.DefaultParams()
	rounds := spec.Workload.Rounds
	eng := ctx.engine(2, spec.Seed)
	traceOn(eng, spec)
	mb := rpc.NewMailbox(eng, "sync")
	hist := trace.AcquireHist("null.sync")
	defer trace.ReleaseHist(hist)
	done := 0
	var start sim.Time
	var post, pickup, resp func()
	post = func() {
		start = eng.Now()
		mb.Post("call", p.Transport.Prop)
		eng.After(p.Transport.PickupLatency(), "pickup", pickup)
	}
	pickup = func() {
		if _, ok := mb.TryTake(); ok {
			mb.Complete("ret", p.Transport.Prop)
			eng.After(p.Transport.PickupLatency(), "resp", resp)
		}
	}
	resp = func() {
		if _, ok := mb.TryResponse(); ok {
			hist.Observe(eng.Now().Sub(start))
			done++
			if done < rounds {
				post()
			}
		}
	}
	post()
	eng.Run()
	if hist.Count() < rounds {
		return fmt.Errorf("sync null calls stalled at %d/%d", hist.Count(), rounds)
	}
	t.Values["ns"] = float64(hist.Mean())
	t.Meta.Simulated = sim.Duration(eng.Now())
	t.Meta.Events = eng.EventsFired()
	t.captureObs(eng)
	return nil
}

// runNullSameCore computes the same-core EL3 null-call component: two
// world switches plus the deployed transient-execution mitigation
// flushes — the paper's >12.8 µs lower bound.
func (t *Trial) runNullSameCore(ctx *TrialContext, spec ScenarioSpec) error {
	p := core.DefaultParams()
	eng, mach := ctx.machine(1, spec.Seed)
	traceOn(eng, spec)
	costs := uarch.DefaultFlushCosts()
	c := mach.Core(0)
	// Host side traps to EL3: mitigation flush, then the world switch in.
	c.RecordExecution(uarch.DomainHost, 0.5, 0)
	flushIn := c.FlushMitigations(costs)
	swIn := c.SwitchWorld(hw.RealmWorld)
	// Monitor services the call, flushes on the way out, switches back.
	c.RecordExecution(uarch.DomainMonitor, 0.3, 0)
	flushOut := c.FlushMitigations(costs)
	swOut := c.SwitchWorld(hw.NormalWorld)
	t.Values["ns"] = float64(flushIn + flushOut + swIn + swOut + p.EL3Dispatch)
	t.captureObs(eng)
	return nil
}

// runBattery runs the transient-execution attack battery under the
// spec's scheduling and records which vulnerabilities leaked.
func (t *Trial) runBattery(ctx *TrialContext, spec ScenarioSpec) error {
	eng, mach := ctx.machine(2, spec.Seed)
	traceOn(eng, spec)
	h := attack.NewHarnessOn(eng, mach, spec.Config.Options().PartitionLLC)
	res := h.RunBattery(spec.Workload.Sched)
	leaks := res.LeakedVulns()
	t.Values["leaks"] = float64(len(leaks))
	t.Labels["leaks"] = leaks
	t.captureObs(eng)
	return nil
}

// runPTChurn drives the §6.1 stage-2 maintenance churn: Ops mapping
// updates with Frac of them to unprotected (shared) memory, under CCA
// rules (every update is a cross-core RPC) or TDX rules (unprotected
// updates edit the host-owned insecure table locally).
func (t *Trial) runPTChurn(ctx *TrialContext, spec ScenarioSpec) error {
	w := spec.Workload
	p := core.DefaultParams()
	eng := ctx.engine(2, spec.Seed)
	traceOn(eng, spec)
	src := eng.Source("churn")
	mb := rpc.NewMailbox(eng, "rtt")
	var rpcs uint64
	var done int
	var next, pickup, work, resp func()
	next = func() {
		if done >= w.Ops {
			return
		}
		done++
		shared := src.Float64() < w.Frac
		if w.TDXStyle && shared {
			// Host edits its own EPT: purely local.
			eng.After(hostPTEUpdate, "ept-update", next)
			return
		}
		// Synchronous RPC to the monitor on the dedicated core.
		rpcs++
		mb.Post("rtt-op", p.Transport.Prop)
		eng.After(p.Transport.PickupLatency(), "rtt-pickup", pickup)
	}
	pickup = func() {
		if _, ok := mb.TryTake(); ok {
			eng.After(monitorRTTWork, "rtt-work", work)
		}
	}
	work = func() {
		mb.Complete("ok", p.Transport.Prop)
		eng.After(p.Transport.PickupLatency(), "rtt-resp", resp)
	}
	resp = func() {
		if _, ok := mb.TryResponse(); ok {
			next()
		}
	}
	next()
	eng.Run()
	if done < w.Ops {
		return fmt.Errorf("ptchurn stalled at %d/%d ops", done, w.Ops)
	}
	t.Values["total.ns"] = float64(eng.Now())
	t.Values["perop.ns"] = float64(eng.Now()) / float64(w.Ops)
	t.Values["rpcs"] = float64(rpcs)
	t.Meta.Simulated = sim.Duration(eng.Now())
	t.Meta.Events = eng.EventsFired()
	t.captureObs(eng)
	return nil
}

// hostPTEUpdate is the host's local cost to edit its own (insecure) EPT.
const hostPTEUpdate = 90 * sim.Nanosecond

// monitorRTTWork is the monitor's validation+update work per RTT call.
const monitorRTTWork = 120 * sim.Nanosecond
