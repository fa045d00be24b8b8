package host

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// The differential test of rotations: a random schedule runs twice, once
// with pollers that report when their polls will find work and once
// with pollers that claim to find work on every slice. The second run
// is the per-slice reference: no core ever rotates, so every poll slice
// is a queued completion, as before rotations existed. Everything the
// runs can observe must agree.

// Operation kinds past the conservation harness's (opKinds).
const (
	opPost  = opKinds     // a poller's mailbox gets a response (x < opPost+4)
	opTouch = opKinds + 4 // a guest's code runs on some core (x < opTouch+2)
	diffOps = opKinds + 6
)

// diffThread is one thread of a differential schedule.
type diffThread struct {
	class Class
	pin   hw.CoreID
	slice sim.Duration // poll slice
	reply sim.Duration // work a found response submits (0: none)
	poll  bool         // polling from the start
}

// diffSchedule is a random schedule with every parameter drawn up
// front, so the two runs see the same one.
type diffSchedule struct {
	cores   int
	quantum sim.Duration
	threads []diffThread
	ops     []schedOp
	args    []int64 // per op: work, cost, delay or footprint
	probe   sim.Duration
	// aligned keeps every duration on the grid, so slice boundaries
	// stay on it all run long and op times land on them.
	aligned bool
}

const diffHorizon = 3 * sim.Millisecond

// grid is the step that op times, works and delays snap to half the
// time, so that they land exactly on slice boundaries.
const grid = 5 * sim.Microsecond

func genDiff(seed int64) diffSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := diffSchedule{cores: 1 + rng.Intn(4), probe: sim.Duration(20+rng.Intn(60)) * sim.Microsecond}
	s.quantum = sim.Duration(40+rng.Intn(200)) * sim.Microsecond
	s.aligned = rng.Intn(2) == 0
	for i := 0; i < 1+rng.Intn(6); i++ {
		th := diffThread{class: ClassNormal, pin: hw.NoCore, poll: rng.Intn(3) > 0}
		if rng.Intn(5) == 0 {
			th.class = ClassFIFO
		}
		if rng.Intn(4) > 0 {
			// Crowd the pollers onto few cores so rotations have turns.
			th.pin = hw.CoreID(rng.Intn(1 + s.cores/2))
		}
		th.slice = grid * sim.Duration(1+rng.Intn(4))
		if rng.Intn(4) == 0 && !s.aligned {
			th.slice = sim.Duration(1000 + rng.Intn(20000))
		}
		if rng.Intn(2) == 0 {
			th.reply = grid * sim.Duration(rng.Intn(6))
		}
		s.threads = append(s.threads, th)
	}
	s.ops = randomOps(rng, len(s.threads), s.cores, diffHorizon, diffOps)
	for i := range s.ops {
		if s.aligned || rng.Intn(2) == 0 {
			s.ops[i].at -= s.ops[i].at % sim.Time(grid)
		}
		s.args = append(s.args, rng.Int63())
	}
	return s
}

// span turns an op's argument into a duration below max: zero
// sometimes, else on the grid always in an aligned schedule and half the
// time otherwise.
func (s *diffSchedule) span(arg int64, max sim.Duration) sim.Duration {
	switch {
	case arg%4 == 0:
		return 0
	case s.aligned || arg%4 < 3:
		return grid * sim.Duration((arg/4)%int64(max/grid))
	}
	return sim.Duration((arg / 4) % int64(max))
}

// diffRun executes a schedule and renders everything observable.
type diffRun struct {
	eng   *sim.Engine
	mach  *hw.Machine
	k     *Kernel
	ths   []*Thread
	ready []sim.Time
	polls []Poll
	out   strings.Builder
}

func (r *diffRun) logf(format string, args ...any) {
	fmt.Fprintf(&r.out, "%v ", r.eng.Now())
	fmt.Fprintf(&r.out, format, args...)
	r.out.WriteByte('\n')
}

func runDiff(s diffSchedule, seed int64, reference bool) (string, uint64) {
	eng := sim.NewEngine(uint64(seed))
	mach := hw.NewMachine(eng, hw.DefaultConfig(s.cores))
	k := NewKernel(mach)
	k.SetQuantum(s.quantum)
	r := &diffRun{eng: eng, mach: mach, k: k}
	r.ready = make([]sim.Time, len(s.threads))
	r.polls = make([]Poll, len(s.threads))
	for i, dt := range s.threads {
		i, dt := i, dt
		th := k.NewThread(fmt.Sprintf("t%d", i), dt.class, dt.pin)
		r.ths = append(r.ths, th)
		r.ready[i] = sim.Forever
		readyAt := func() sim.Time { return r.ready[i] }
		if reference {
			readyAt = func() sim.Time { return 0 }
		}
		r.polls[i] = Poll{
			Slice: dt.slice,
			Action: func() {
				if eng.Now() < r.ready[i] {
					return
				}
				r.ready[i] = sim.Forever
				r.logf("t%d found", i)
				if dt.reply > 0 {
					k.Submit(th, "reply", dt.reply, func() { r.logf("t%d replied", i) })
				}
			},
			ReadyAt: readyAt,
		}
		if dt.poll {
			k.SetIdlePoll(th, &r.polls[i])
			k.Submit(th, "seed", 0, nil)
		}
	}
	for n, o := range s.ops {
		n, o := n, o
		i, c, arg := o.th, o.c, s.args[n]
		th := r.ths[i]
		var op func()
		switch x := o.x; {
		case x < 8:
			op = func() {
				k.Submit(th, "item", s.span(arg, 200*sim.Microsecond), func() { r.logf("op%d done on t%d", n, i) })
			}
		case x < 12:
			op = func() { r.steal(c, s.span(arg, 60*sim.Microsecond), n) }
		case x == 12:
			op = func() {
				r.steal(c, s.span(arg, 60*sim.Microsecond), n)
				r.steal(c, s.span(arg/7, 60*sim.Microsecond), n)
			}
		case x < 15:
			op = func() { r.logf("op%d offline %d: %v", n, c, k.OfflineCore(c, nil)) }
		case x < 17:
			op = func() { r.logf("op%d online %d: %v", n, c, k.OnlineCore(c)) }
		case x == 17:
			op = func() { k.Kill(th) }
		case x < opPost:
			on := o.on
			op = func() {
				if !on {
					k.SetIdlePoll(th, nil)
					return
				}
				k.SetIdlePoll(th, &r.polls[i])
				if th.State() == Blocked {
					k.Submit(th, "seed", 0, nil)
				}
			}
		case x < opTouch:
			op = func() {
				if at := eng.Now().Add(s.span(arg, 100*sim.Microsecond)); at < r.ready[i] {
					r.ready[i] = at
				}
				k.PollReady(th)
			}
		default:
			op = func() {
				frac := 0.0
				if arg%2 == 0 {
					frac = 0.3
				}
				mach.Core(c).RecordExecution(uarch.Guest(i), float64(1+arg%50)/100, frac)
			}
		}
		eng.At(o.at, "op", op)
	}
	// Probe the scheduler's state between operations.
	var probe func()
	probe = func() {
		r.logf("probe %s", r.state(false))
		if eng.Now() < sim.Time(diffHorizon) {
			eng.After(s.probe, "probe", probe)
		}
	}
	eng.After(s.probe, "probe", probe)
	eng.RunUntil(sim.Time(diffHorizon))
	r.logf("horizon %s", r.state(true))
	// Drain: stop polling and run what is left, so the queues and slices
	// the rotations handed back are checked too.
	for _, th := range r.ths {
		k.SetIdlePoll(th, nil)
	}
	eng.Run()
	r.logf("drained %s", r.state(true))
	return r.out.String(), eng.EventsFired()
}

func (r *diffRun) steal(c hw.CoreID, cost sim.Duration, n int) {
	r.k.StealCPU(c, cost, func() { r.logf("op%d steal on %d", n, c) })
}

// state renders the kernel, thread and core state; full adds every
// counter and each core's materialized µarch entries.
func (r *diffRun) state(full bool) string {
	var b strings.Builder
	for i, th := range r.ths {
		fmt.Fprintf(&b, "t%d:%v@%d cpu=%v sw=%d q=%d ", i, th.State(), th.Core(), th.CPUTime(), th.ContextSwitches(), th.QueueLen())
	}
	for _, c := range r.mach.Cores() {
		run := "-"
		if t := r.k.Running(c.ID()); t != nil {
			run = t.Name()
		}
		fmt.Fprintf(&b, "| core%d %s busy=%v %q %v dom=%v ", c.ID(), run, c.Exec.BusyTime(), c.Exec.Label(), c.DomainsObserved(), c.CurrentDomain())
		if !full {
			continue
		}
		h := fnv.New64a()
		for _, kind := range uarch.PerCoreKinds() {
			buf := c.Uarch.Buffer(kind)
			fmt.Fprintf(h, "%v:%d:", kind, buf.Len())
			var rec [13]byte
			for _, e := range buf.Residue(uarch.Guest(999)) {
				binary.LittleEndian.PutUint32(rec[:], uint32(e.Domain))
				binary.LittleEndian.PutUint64(rec[4:], e.Tag)
				rec[12] = 0
				if e.Secret {
					rec[12] = 1
				}
				h.Write(rec[:])
			}
		}
		fmt.Fprintf(&b, "uarch=%x switches=%d ", h.Sum64(), c.Uarch.DomainSwitches())
	}
	if full {
		r.eng.Counters(func(name string, v uint64) { fmt.Fprintf(&b, "%s=%d ", name, v) })
	}
	return b.String()
}

// TestRotationMatchesPerSlice runs random schedules of pollers with
// readiness, Submit, StealCPU (nested too), OfflineCore/OnlineCore,
// Kill, SetIdlePoll on and off, and guests' RecordExecutions on 1–4
// cores, with op times, works and delays landing on slice boundaries,
// against the per-slice reference. Every counter, each thread's CPU
// time and switches, every completion's time and order, each core's
// DomainsObserved and its per-core buffers' materialized tags and secret
// bits must agree, at probes during the run, at the horizon and after a
// drain.
func TestRotationMatchesPerSlice(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var perSlice, rotating uint64
	for seed := int64(1); seed <= seeds; seed++ {
		s := genDiff(seed)
		want, n := runDiff(s, seed, true)
		got, m := runDiff(s, seed, false)
		perSlice += n
		rotating += m
		if got != want {
			wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
			for i := range wl {
				if i >= len(gl) || wl[i] != gl[i] {
					g := "<missing>"
					if i < len(gl) {
						g = gl[i]
					}
					t.Fatalf("seed %d: line %d differs\nper-slice: %s\nrotation:  %s", seed, i+1, wl[i], g)
				}
			}
			t.Fatalf("seed %d: rotation run has %d extra lines", seed, len(gl)-len(wl))
		}
	}
	// The schedules must exercise rotations, not just agree.
	if rotating*3 > perSlice*2 {
		t.Fatalf("rotation runs fired %d events against %d per-slice; want under two thirds", rotating, perSlice)
	}
	t.Logf("events fired: %d per-slice, %d rotating", perSlice, rotating)
}
