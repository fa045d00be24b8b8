package exp

import (
	"fmt"
	"testing"

	"coregap/internal/guest"
	"coregap/internal/sim"
)

// These tests assert the *shape* of every reproduced table and figure —
// who wins, by roughly what factor, where crossovers fall — against the
// paper's published results. Exact values are recorded in EXPERIMENTS.md.
// Each runs at every seed in shapeSeeds, so a shape that holds only at
// the artifacts' seed fails.

// shapeSeeds are the artifacts' seed, 42, and seeds 1–5.
var shapeSeeds = []uint64{42, 1, 2, 3, 4, 5}

// forSeeds runs f as one subtest per shape seed.
func forSeeds(t *testing.T, f func(t *testing.T, seed uint64)) {
	for _, seed := range shapeSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { f(t, seed) })
	}
}

func TestTable2Shapes(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunTable2(seed)
		// Paper: 2757.6 ns asynchronous.
		if r.Async < 2600*sim.Nanosecond || r.Async > 2950*sim.Nanosecond {
			t.Errorf("async null call = %v, want ~2757ns", r.Async)
		}
		// Paper: 257.7 ns synchronous.
		if r.Sync < 245*sim.Nanosecond || r.Sync > 270*sim.Nanosecond {
			t.Errorf("sync null call = %v, want ~258ns", r.Sync)
		}
		// Paper: same-core takes >12.8 us — more than 4x the remote call.
		if r.SameCore < 12800*sim.Nanosecond {
			t.Errorf("same-core = %v, want >= 12.8us", r.SameCore)
		}
		if r.SameCore < 4*r.Async {
			t.Errorf("same-core (%v) not >4x async (%v)", r.SameCore, r.Async)
		}
		if r.Table.Rows() != 3 {
			t.Error("table shape")
		}
	})
}

func TestTable3Shapes(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunTable3(seed)
		// Paper: 43.9 / 2.22 / 3.85 us.
		if r.NoDeleg < 38*sim.Microsecond || r.NoDeleg > 50*sim.Microsecond {
			t.Errorf("no-delegation vIPI = %v, want ~43.9us", r.NoDeleg)
		}
		if r.Delegated < 1900*sim.Nanosecond || r.Delegated > 2600*sim.Nanosecond {
			t.Errorf("delegated vIPI = %v, want ~2.22us", r.Delegated)
		}
		if r.SharedCore < 3400*sim.Nanosecond || r.SharedCore > 4300*sim.Nanosecond {
			t.Errorf("shared-core vIPI = %v, want ~3.85us", r.SharedCore)
		}
		// Ordering: delegation beats even the shared-core in-kernel path
		// (Table 3's point: it "completely skips the host's scheduler").
		if !(r.Delegated < r.SharedCore && r.SharedCore < r.NoDeleg) {
			t.Errorf("ordering broken: %v < %v < %v expected", r.Delegated, r.SharedCore, r.NoDeleg)
		}
	})
}

func TestTable4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunTable4(seed)
		// Paper: 33954±161 → 390±3 interrupt-related; 37712±504 → 1324±60.
		within := func(got uint64, want, tol float64) bool {
			return float64(got) > want*(1-tol) && float64(got) < want*(1+tol)
		}
		if !within(r.InterruptExits[0], 33954, 0.05) {
			t.Errorf("interrupt exits no-deleg = %d, want ~33954", r.InterruptExits[0])
		}
		if !within(r.InterruptExits[1], 390, 0.20) {
			t.Errorf("interrupt exits deleg = %d, want ~390", r.InterruptExits[1])
		}
		if !within(r.TotalExits[0], 37712, 0.05) {
			t.Errorf("total exits no-deleg = %d, want ~37712", r.TotalExits[0])
		}
		if !within(r.TotalExits[1], 1324, 0.15) {
			t.Errorf("total exits deleg = %d, want ~1324", r.TotalExits[1])
		}
		// The headline: delegation reduces total exits ~28x.
		ratio := float64(r.TotalExits[0]) / float64(r.TotalExits[1])
		if ratio < 20 || ratio > 40 {
			t.Errorf("exit reduction = %.1fx, want ~28x", ratio)
		}
	})
}

func TestTable5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunTable5(400*sim.Millisecond, seed)
		byKey := map[string]Table5Row{}
		for _, row := range r.Rows {
			byKey[row.Op.String()+"/"+row.Mode] = row
		}
		// Core gapping achieves ~10% higher throughput on every operation
		// (Table 5), because Redis saturates the guest CPU and the dedicated
		// core escapes host interference.
		for _, op := range []string{"SET", "GET", "LRANGE 100"} {
			shared, gapped := byKey[op+"/shared core"], byKey[op+"/core gapped"]
			if gapped.Throughput <= shared.Throughput {
				t.Errorf("%s: gapped %.1f krps <= shared %.1f krps", op, gapped.Throughput, shared.Throughput)
			}
			gain := gapped.Throughput / shared.Throughput
			if gain > 1.35 {
				t.Errorf("%s: gain %.2fx implausibly high", op, gain)
			}
		}
		// LRANGE: gapped delivers lower latency (reduced contention).
		if byKey["LRANGE 100/core gapped"].Mean >= byKey["LRANGE 100/shared core"].Mean {
			t.Error("LRANGE gapped latency should beat shared core")
		}
		// Absolute scale: tens of krps for SET/GET, ~15 krps for LRANGE.
		if s := byKey["SET/shared core"].Throughput; s < 40 || s > 75 {
			t.Errorf("SET shared = %.1f krps, want ~52", s)
		}
		if s := byKey["LRANGE 100/shared core"].Throughput; s < 10 || s > 20 {
			t.Errorf("LRANGE shared = %.1f krps, want ~12-16", s)
		}
	})
}

func TestFig3Shapes(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunFig3(seed)
		if r.Summary.Total < 30 {
			t.Errorf("catalogue = %d, want 30+", r.Summary.Total)
		}
		// The battery: shared-core zero-day leaks nearly everything;
		// core gapping leaves only CrossTalk.
		if len(r.ZeroDayLeaks) < 20 {
			t.Errorf("zero-day leaks = %d, want many", len(r.ZeroDayLeaks))
		}
		if len(r.MitigatedLeaks) >= len(r.ZeroDayLeaks) {
			t.Error("deployed mitigations should reduce the leak set")
		}
		if len(r.CoreGappedLeaks) != 1 || r.CoreGappedLeaks[0] != "CrossTalk" {
			t.Errorf("core-gapped leaks = %v, want [CrossTalk]", r.CoreGappedLeaks)
		}
		if r.SecuritySummary() == "" || r.Timeline.Rows() != r.Summary.Total {
			t.Error("rendering shape")
		}
	})
}

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunFig6([]int{4, 8, 16}, 300*sim.Millisecond, seed)
		at := func(series string, x float64) float64 {
			y, ok := r.Figure.Series(series).YAt(x)
			if !ok {
				t.Fatalf("missing %s@%v", series, x)
			}
			return y
		}
		for _, N := range []float64{4, 8, 16} {
			shared, gapped := at("shared-core", N), at("core-gapped", N)
			// Baseline ~N effective cores; gapped ~N-1 (one host core).
			if shared < N*0.97 || shared > N {
				t.Errorf("shared@%v = %.2f, want ~%v", N, shared, N)
			}
			if gapped < (N-1)*0.97 || gapped > N-1+0.01 {
				t.Errorf("gapped@%v = %.2f, want ~%v", N, gapped, N-1)
			}
			// Busy-wait without delegation falls behind the async design.
			if bw := at("busy-wait, no delegation", N); bw >= gapped {
				t.Errorf("busy-wait no-deleg@%v = %.2f, not below gapped %.2f", N, bw, gapped)
			}
		}
		// Run-to-run latency: paper reports 26.18 ± 0.96 us, stable.
		if r.RunToRunMean < 20*sim.Microsecond || r.RunToRunMean > 32*sim.Microsecond {
			t.Errorf("run-to-run = %v, want ~26us", r.RunToRunMean)
		}
	})
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		fig := RunFig7(8, 200*sim.Millisecond, seed)
		for _, series := range []string{"shared-core", "core-gapped"} {
			y1, _ := fig.Series(series).YAt(1)
			y8, _ := fig.Series(series).YAt(8)
			// Linear aggregate scaling (paper: "the aggregate scales
			// linearly"; 16 VMMs on one host core do not harm throughput).
			if y8 < 7.5*y1 {
				t.Errorf("%s: y(8)=%.2f not ~8x y(1)=%.2f", series, y8, y1)
			}
		}
	})
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunFig8([]int{1024, 65536, 1 << 20}, 30, seed)
		lat := func(series string, x float64) float64 {
			y, ok := r.Latency.Series(series).YAt(x)
			if !ok {
				t.Fatalf("missing %s@%v", series, x)
			}
			return y
		}
		// SR-IOV beats virtio in latency at every size, in both modes.
		for _, x := range []float64{1024, 65536} {
			if lat("SR-IOV shared-core", x) >= lat("virtio shared-core", x) {
				t.Errorf("SR-IOV not faster than virtio (shared) at %v", x)
			}
		}
		// Gapped SR-IOV latency within 10-20 us of baseline (paper) — we
		// accept up to 25 us of added one-way latency.
		for _, x := range []float64{1024, 65536} {
			d := lat("SR-IOV core-gapped", x) - lat("SR-IOV shared-core", x)
			if d <= 0 || d > 25 {
				t.Errorf("SR-IOV gapped latency delta @%v = %.1fus, want (0, 25]", x, d)
			}
		}
		// virtio suffers more from gapping than SR-IOV does (relative).
		dv := lat("virtio core-gapped", 1024) / lat("virtio shared-core", 1024)
		ds := lat("SR-IOV core-gapped", 1024) / lat("SR-IOV shared-core", 1024)
		if dv < 1.0 {
			t.Errorf("virtio gapped ratio = %.2f, want >= 1", dv)
		}
		_ = ds
		// Throughput: SR-IOV near parity at 1 MiB (within 5%, paper: up to
		// 5% higher for gapped at large sizes).
		tg, _ := r.Throughput.Series("SR-IOV core-gapped").YAt(1 << 20)
		ts, _ := r.Throughput.Series("SR-IOV shared-core").YAt(1 << 20)
		if tg < ts*0.93 {
			t.Errorf("SR-IOV gapped throughput %.2f well below shared %.2f at 1MiB", tg, ts)
		}
	})
}

// TestFig8FullVirtio4MiB: the full profile's largest virtio-net message
// used to miss its last round, whose echo was still on the wire when the
// trial stopped draining it.
func TestFig8FullVirtio4MiB(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	ran := 0
	for _, spec := range expFig8.Specs(Profile{Seed: 42, Full: true}) {
		if spec.Workload.Dev != guest.VirtioNet || spec.Workload.Bytes != 4<<20 {
			continue
		}
		ran++
		tr, err := ExecuteIn(NewTrialContext(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if tr.Values["rtt.ns"] <= 0 {
			t.Fatalf("%s: no round-trip time", spec.ID)
		}
	}
	if ran != 2 {
		t.Fatalf("ran %d virtio 4 MiB specs, want 2 (shared and gapped)", ran)
	}
}

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		fig := RunFig9([]int{4 << 10, 16 << 20}, seed)
		at := func(series string, x float64) float64 {
			y, ok := fig.Series(series).YAt(x)
			if !ok {
				t.Fatalf("missing %s@%v", series, x)
			}
			return y
		}
		// Small records: gapping suffers badly from per-request exit latency.
		small := at("core-gapped read", 4<<10) / at("shared-core read", 4<<10)
		if small > 0.6 {
			t.Errorf("4KiB gapped/shared = %.2f, want well below 1", small)
		}
		// Large records: similar throughput only for large (>10MiB) I/Os.
		big := at("core-gapped read", 16<<20) / at("shared-core read", 16<<20)
		if big < 0.95 || big > 1.02 {
			t.Errorf("16MiB gapped/shared = %.2f, want ~1", big)
		}
	})
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	forSeeds(t, func(t *testing.T, seed uint64) {
		fig := RunFig10([]int{8, 16}, 120, seed)
		at := func(series string, x float64) float64 {
			y, ok := fig.Series(series).YAt(x)
			if !ok {
				t.Fatalf("missing %s@%v", series, x)
			}
			return y
		}
		// Comparable performance despite one fewer vCPU: within ~20% at 8+
		// cores, converging as the core count grows.
		r8 := at("core-gapped", 8) / at("shared-core", 8)
		r16 := at("core-gapped", 16) / at("shared-core", 16)
		if r8 > 1.30 {
			t.Errorf("8-core build ratio = %.2f, want <= 1.30", r8)
		}
		if r16 > r8+0.02 {
			t.Errorf("ratio should converge with cores: r8=%.2f r16=%.2f", r8, r16)
		}
		// More cores build faster in both modes.
		if at("shared-core", 16) >= at("shared-core", 8) {
			t.Error("shared build did not speed up with cores")
		}
	})
}

func TestTDXComparisonShapes(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed uint64) {
		r := RunTDXComparison(5000, 0.5, seed)
		// §6.1: TDX-style host-owned insecure page tables need fewer RPCs
		// and therefore cost less per mixed update.
		if r.TDXRPCs >= r.CCARPCs {
			t.Errorf("TDX RPCs/1000 = %d, CCA = %d; want fewer", r.TDXRPCs, r.CCARPCs)
		}
		if r.CCARPCs != 1000 {
			t.Errorf("CCA must RPC on every update, got %d/1000", r.CCARPCs)
		}
		if r.TDXPerOp >= r.CCAPerOp {
			t.Errorf("TDX per-op %v not cheaper than CCA %v", r.TDXPerOp, r.CCAPerOp)
		}
		if r.Table.Rows() != 2 {
			t.Error("table shape")
		}
	})
}
