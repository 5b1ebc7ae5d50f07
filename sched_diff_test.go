package commopt

import (
	"fmt"
	"os"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/programs"
)

// TestSchedMatchesGoroutineOracle is the differential gate for the M:N
// scheduler: every bundled benchmark and the shipped example, at every
// optimization level, both communication protocols, and processor counts
// spanning one proc to a full 8×8 mesh, must produce bit-identical
// arrays and identical simulated statistics whether processors run on
// the worker pool or on the goroutine-per-proc oracle
// (RunOptions.ForceGoroutinePerProc). Virtual times are carried in the
// messages themselves, so any divergence — in data, counts, or any
// single processor's time breakdown — means scheduling order leaked
// into simulated semantics.
func TestSchedMatchesGoroutineOracle(t *testing.T) {
	levels := []struct {
		name string
		opts comm.Options
	}{
		{"baseline", comm.Baseline()},
		{"rr", comm.RR()},
		{"cc", comm.CC()},
		{"pl", comm.PL()},
		{"pl-maxlat", comm.PLMaxLatency()},
		{"pl-hoist", comm.Options{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true}},
	}

	type target struct {
		name string
		prog *Program
		cfg  map[string]float64
	}
	var targets []target
	for _, b := range programs.Suite() {
		prog, err := Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		targets = append(targets, target{b.Name, prog, b.TestConfig})
	}
	src, err := os.ReadFile("examples/zpl/laplace.zpl")
	if err != nil {
		t.Fatal(err)
	}
	lap, err := Compile(string(src))
	if err != nil {
		t.Fatalf("laplace: compile: %v", err)
	}
	targets = append(targets, target{"laplace", lap, map[string]float64{"n": 16, "iters": 3}})

	// pvm exercises message-passing recycling through the mailbox return
	// path, shmem the rendezvous token path (park on ready tokens).
	for _, lib := range []string{"pvm", "shmem"} {
		for _, tgt := range targets {
			for _, lv := range levels {
				plan := tgt.prog.Plan(lv.opts)
				for _, procs := range []int{1, 4, 64} {
					t.Run(fmt.Sprintf("%s/%s/%s/p%d", lib, tgt.name, lv.name, procs), func(t *testing.T) {
						run := func(oracle bool) RunOptions {
							return RunOptions{
								Library:               lib,
								Procs:                 procs,
								Configs:               tgt.cfg,
								ForceGoroutinePerProc: oracle,
							}
						}
						sched, err := tgt.prog.Run(plan, run(false))
						if err != nil {
							t.Fatalf("scheduler run: %v", err)
						}
						oracle, err := tgt.prog.Run(plan, run(true))
						if err != nil {
							t.Fatalf("oracle run: %v", err)
						}
						if sched.ExecTime != oracle.ExecTime {
							t.Errorf("ExecTime: sched %v, oracle %v", sched.ExecTime, oracle.ExecTime)
						}
						if sched.DynamicTransfers != oracle.DynamicTransfers {
							t.Errorf("DynamicTransfers: sched %d, oracle %d", sched.DynamicTransfers, oracle.DynamicTransfers)
						}
						if sched.Messages != oracle.Messages {
							t.Errorf("Messages: sched %d, oracle %d", sched.Messages, oracle.Messages)
						}
						if sched.BytesSent != oracle.BytesSent {
							t.Errorf("BytesSent: sched %d, oracle %d", sched.BytesSent, oracle.BytesSent)
						}
						if sched.Reductions != oracle.Reductions {
							t.Errorf("Reductions: sched %d, oracle %d", sched.Reductions, oracle.Reductions)
						}
						if sched.Output != oracle.Output {
							t.Errorf("Output differs:\nsched:  %q\noracle: %q", sched.Output, oracle.Output)
						}
						if sched.Breakdown != oracle.Breakdown {
							t.Errorf("Breakdown: sched %+v, oracle %+v", sched.Breakdown, oracle.Breakdown)
						}
						for r := range sched.PerProc {
							if sched.PerProc[r] != oracle.PerProc[r] {
								t.Errorf("PerProc[%d]: sched %+v, oracle %+v", r, sched.PerProc[r], oracle.PerProc[r])
							}
						}
						for _, a := range tgt.prog.IR.Arrays {
							if i, ok := sched.SameBits(oracle, a.Name); !ok {
								t.Errorf("array %s: element %d differs, want bit-identical", a.Name, i)
							}
						}
					})
				}
			}
		}
	}
}
