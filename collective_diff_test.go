package commopt

import (
	"fmt"
	"os"
	"testing"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/programs"
	"commopt/internal/rt"
)

// TestCollectiveAlgorithmsAgree is the differential gate for the
// collective subsystem: every bundled benchmark and the shipped example,
// at every optimization level, both communication protocols, and
// processor counts from one proc to a 32×32 mesh, must produce
// bit-identical arrays, output and semantic statistics no matter which
// allreduce algorithm carries the reductions. The gather-based
// algorithms fold contributions in strict rank order precisely so that
// floating-point results cannot depend on hop pattern; any divergence
// here means an algorithm reordered the fold or dropped a contribution.
//
// Statistics that legitimately depend on algorithm shape (ExecTime,
// Messages, BytesSent, Breakdown) are deliberately not compared —
// TestPredictMatchesRuntime pins those against the cost model instead.
func TestCollectiveAlgorithmsAgree(t *testing.T) {
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

	for _, lib := range []string{"pvm", "shmem"} {
		for _, tgt := range targets {
			for _, lv := range levels {
				plan := tgt.prog.Plan(lv.opts)
				if len(plan.Collectives) == 0 {
					continue // no reductions: algorithm choice can't matter
				}
				// The full 32×32 mesh only at pl: one level is enough to
				// exercise every algorithm at scale, and the small-mesh
				// sweep already covers level × algorithm interactions.
				procCounts := []int{1, 4, 64}
				if lv.name == "pl" && !testing.Short() {
					procCounts = append(procCounts, 1024)
				}
				for _, procs := range procCounts {
					cfg := tgt.cfg
					if procs == 1024 {
						// Benchmark TestConfig sizes are too small to
						// block-distribute over a 32×32 mesh; widen every
						// extent to 64 and keep the iteration counts.
						cfg = make(map[string]float64, len(tgt.cfg))
						for k, v := range tgt.cfg {
							if k == "iters" {
								cfg[k] = v
							} else {
								cfg[k] = 64
							}
						}
					}
					mesh := grid.SquarestMesh(procs)
					ref, err := tgt.prog.Run(plan, RunOptions{
						Library:    lib,
						Procs:      procs,
						Configs:    cfg,
						Collective: "star",
					})
					if err != nil {
						t.Fatalf("%s/%s/%s/p%d: star run: %v", lib, tgt.name, lv.name, procs, err)
					}
					for _, alg := range []collective.Alg{collective.Tree, collective.Butterfly, collective.TwoLevel} {
						if !collective.Eligible(alg, mesh) {
							continue
						}
						t.Run(fmt.Sprintf("%s/%s/%s/p%d/%s", lib, tgt.name, lv.name, procs, alg), func(t *testing.T) {
							got, err := tgt.prog.Run(plan, RunOptions{
								Library:    lib,
								Procs:      procs,
								Configs:    cfg,
								Collective: alg.String(),
							})
							if err != nil {
								t.Fatalf("%s run: %v", alg, err)
							}
							if got.Output != ref.Output {
								t.Errorf("Output differs from star:\n%s:  %q\nstar: %q", alg, got.Output, ref.Output)
							}
							if got.Reductions != ref.Reductions {
								t.Errorf("Reductions: %s %d, star %d", alg, got.Reductions, ref.Reductions)
							}
							if got.DynamicTransfers != ref.DynamicTransfers {
								t.Errorf("DynamicTransfers: %s %d, star %d", alg, got.DynamicTransfers, ref.DynamicTransfers)
							}
							for _, a := range tgt.prog.IR.Arrays {
								if i, ok := got.SameBits(ref, a.Name); !ok {
									t.Errorf("array %s: element %d differs vs star, want bit-identical", a.Name, i)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestCollectiveSchedOracle re-runs the scheduler-vs-goroutine-per-proc
// differential check for the collective-heavy benchmarks with non-star
// algorithms forced, so multi-hop reduction schedules (which park and
// resume procs mid-reduction on keyed mailbox slots) are exercised under
// both execution engines.
func TestCollectiveSchedOracle(t *testing.T) {
	for _, bench := range []string{"simple", "tomcatv"} {
		b, err := programs.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", bench, err)
		}
		plan := prog.Plan(comm.PL())
		for _, lib := range []string{"pvm", "shmem"} {
			for _, alg := range []string{"tree", "butterfly", "twolevel"} {
				t.Run(fmt.Sprintf("%s/%s/%s", bench, lib, alg), func(t *testing.T) {
					run := func(oracle bool) *rt.Result {
						res, err := prog.Run(plan, RunOptions{
							Library:               lib,
							Procs:                 64,
							Configs:               b.TestConfig,
							Collective:            alg,
							ForceGoroutinePerProc: oracle,
						})
						if err != nil {
							t.Fatalf("run (oracle=%v): %v", oracle, err)
						}
						return res
					}
					sched, oracle := run(false), run(true)
					if sched.ExecTime != oracle.ExecTime {
						t.Errorf("ExecTime: sched %v, oracle %v", sched.ExecTime, oracle.ExecTime)
					}
					if sched.Messages != oracle.Messages {
						t.Errorf("Messages: sched %d, oracle %d", sched.Messages, oracle.Messages)
					}
					if sched.BytesSent != oracle.BytesSent {
						t.Errorf("BytesSent: sched %d, oracle %d", sched.BytesSent, oracle.BytesSent)
					}
					if sched.Breakdown != oracle.Breakdown {
						t.Errorf("Breakdown: sched %+v, oracle %+v", sched.Breakdown, oracle.Breakdown)
					}
					if sched.Output != oracle.Output {
						t.Errorf("Output differs:\nsched:  %q\noracle: %q", sched.Output, oracle.Output)
					}
					for r := range sched.PerProc {
						if sched.PerProc[r] != oracle.PerProc[r] {
							t.Errorf("PerProc[%d]: sched %+v, oracle %+v", r, sched.PerProc[r], oracle.PerProc[r])
						}
					}
					for _, a := range prog.IR.Arrays {
						if i, ok := sched.SameBits(oracle, a.Name); !ok {
							t.Errorf("array %s: element %d differs, want bit-identical", a.Name, i)
						}
					}
				})
			}
		}
	}
}
