package rt

import (
	"math"
	"strings"
	"testing"

	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/zpl"
)

// Differential tests for cross-statement kernel fusion (fuse.go, cse.go)
// and host-side comm/compute overlap (overlap.go). Both passes change
// only HOW the host computes — simulated results, virtual times, message
// counts and array contents must be bit-identical with either disabled.
// ForceNoFusion and NoOverlap are the oracles.

// diffConfigs returns the (fast, oracle) config pair for one benchmark
// with the given passes disabled in the oracle.
func fusionDiffRun(t *testing.T, name string, procs int, noFuse, noOverlap bool) *Result {
	t.Helper()
	bench, err := programs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, plan := compile(t, bench.Source)
	res, err := Run(prog, plan, Config{
		Machine: machine.T3D(), Library: "pvm", Procs: procs,
		ConfigVars: bench.CalibConfig, Metrics: true,
		ForceNoFusion: noFuse, NoOverlap: noOverlap,
	})
	if err != nil {
		t.Fatalf("%s procs=%d noFuse=%v noOverlap=%v: %v", name, procs, noFuse, noOverlap, err)
	}
	return res
}

// mustMatch compares every observable of two runs.
func mustMatch(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.ExecTime != want.ExecTime {
		t.Errorf("%s: ExecTime %v, oracle %v", label, got.ExecTime, want.ExecTime)
	}
	if got.Output != want.Output {
		t.Errorf("%s: Output %q, oracle %q", label, got.Output, want.Output)
	}
	if got.Messages != want.Messages || got.BytesSent != want.BytesSent ||
		got.DynamicTransfers != want.DynamicTransfers || got.Reductions != want.Reductions {
		t.Errorf("%s: msgs/bytes/dyn/red = %d/%d/%d/%d, oracle %d/%d/%d/%d", label,
			got.Messages, got.BytesSent, got.DynamicTransfers, got.Reductions,
			want.Messages, want.BytesSent, want.DynamicTransfers, want.Reductions)
	}
	for r := range got.PerProc {
		if got.PerProc[r] != want.PerProc[r] {
			t.Errorf("%s: PerProc[%d] = %+v, oracle %+v", label, r, got.PerProc[r], want.PerProc[r])
		}
	}
	if g, w := got.DumpArrays(), want.DumpArrays(); g != w {
		t.Errorf("%s: arrays %q, oracle %q", label, g, w)
		return
	}
	for name, a := range got.arrays {
		b := want.arrays[name]
		if a.Reg != b.Reg {
			t.Errorf("%s: array %s spans %v, oracle %v", label, name, a.Reg, b.Reg)
			continue
		}
		for i := range a.data {
			if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
				t.Errorf("%s: array %s element %d = %v, oracle %v", label, name, i, a.data[i], b.data[i])
				break
			}
		}
	}
}

func counterOf(res *Result, name string) int64 {
	for _, c := range res.Metrics.Counters() {
		if c.Name == name {
			return c.N
		}
	}
	return 0
}

// TestFusionMatchesUnfused: every suite benchmark, executed with fusion
// on, must be bit-identical to the ForceNoFusion oracle — times, counts,
// outputs and every array element.
func TestFusionMatchesUnfused(t *testing.T) {
	counts := []int{1, 16, 64}
	if testing.Short() {
		counts = []int{16}
	}
	for _, bench := range programs.Suite() {
		for _, procs := range counts {
			oracle := fusionDiffRun(t, bench.Name, procs, true, false)
			fused := fusionDiffRun(t, bench.Name, procs, false, false)
			mustMatch(t, bench.Name, fused, oracle)
			if counterOf(oracle, "stmts_fused") != 0 {
				t.Errorf("%s procs=%d: oracle executed fused statements", bench.Name, procs)
			}
		}
	}
}

// TestOverlapMatchesNoOverlap: overlap on versus the NoOverlap oracle,
// and both passes on versus both oracles at once.
func TestOverlapMatchesNoOverlap(t *testing.T) {
	counts := []int{16, 64}
	if testing.Short() {
		counts = []int{16}
	}
	for _, bench := range programs.Suite() {
		for _, procs := range counts {
			oracle := fusionDiffRun(t, bench.Name, procs, false, true)
			overlapped := fusionDiffRun(t, bench.Name, procs, false, false)
			mustMatch(t, bench.Name+"/overlap", overlapped, oracle)
			both := fusionDiffRun(t, bench.Name, procs, true, true)
			mustMatch(t, bench.Name+"/both-oracles", oracle, both)
		}
	}
}

// fusionCSESrc builds a single comm-free fusable run in which the
// subexpression (X * W) repeats across members A, C and B while the
// third member overwrites W mid-run: a correct CSE reuses A's row in C
// (W unchanged between them) and MUST recompute in B after the kill
// (cse.go) — a stale reuse there changes B's values.
const fusionCSESrc = `
program cse;
config var n : integer = 24;
config var iters : integer = 3;
region R = [1..n, 1..n];
var A, B, C, W, X : [R] float;
var s : float;
procedure main();
begin
  [R] X := Index1 * 0.25 + Index2;
  [R] W := Index2 + 0.5;
  for it := 1 to iters do
    [R] A := (X * W) + X;
    [R] C := (X * W) * 0.5;
    [R] W := X * 0.125 + W * 0.5;
    [R] B := (X * W) + 1.0;
  end;
  [R] s := +<< (A + B + C + W);
  writeln("s=", s);
end;
`

// TestFusionCSEKillRule: the crafted program above must (a) actually
// fuse, and (b) match the unfused oracle bitwise — which fails if a
// memoized row survives the mid-run overwrite of X.
func TestFusionCSEKillRule(t *testing.T) {
	prog, plan := compile(t, fusionCSESrc)
	for _, procs := range []int{1, 4, 16} {
		cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: procs, Metrics: true}
		fused, err := Run(prog, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ForceNoFusion = true
		oracle, err := Run(prog, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, "cse", fused, oracle)
		if counterOf(fused, "stmts_fused") == 0 {
			t.Fatalf("procs=%d: crafted CSE run did not take the fused engine", procs)
		}
	}
}

// TestExplainFusionLegality pins the static analysis on the crafted
// programs: the CSE run fuses as one four-member run per iteration, and
// a cross-row RAW hazard splits a run with the documented reason.
func TestExplainFusionLegality(t *testing.T) {
	_, plan := compile(t, fusionCSESrc)
	var fusedLHS []string
	for _, d := range ExplainFusion(plan) {
		if d.Run > 0 {
			fusedLHS = append(fusedLHS, d.LHS)
		}
	}
	if got, want := strings.Join(fusedLHS, ","), "X,W,A,C,W,B"; got != want {
		t.Errorf("fused members = %s, want %s", got, want)
	}

	// The reachable rejection reasons. (The RAW/WAR offset guards in
	// joinBlocker are defense-in-depth: any communicated read schedules
	// its IRONMAN completion calls right after the reading statement, so
	// a cross-row dependence inside a run always trips the comm-boundary
	// check first under every current optimization level.)
	const hazardSrc = `
program hazard;
config var n : integer = 16;
region R = [1..n, 1..n];
region R2 = [2..n, 2..n];
direction north = [-1, 0];
var A, B, C, X, Y, Z : [R] float;
procedure main();
begin
  [R] X := Index1 + Index2;
  [R] A := X;
  [R] B := A@north + X;
  [R] A := X * 2.0;
  [R] C := C@north + X;
  [R] Y := X * 0.5;
  [R2] Z := X + 1.0;
  writeln("done");
end;
`
	_, hplan := compile(t, hazardSrc)
	whyOf := map[string]string{}
	for _, d := range ExplainFusion(hplan) {
		if d.Run == 0 {
			whyOf[d.LHS] = d.Why
		}
	}
	for lhs, want := range map[string]string{
		"A": "communication is scheduled",  // exchange for A@north sits at the boundary
		"C": "reads its own result across", // storeFull self-read, excluded even alone
		"Z": "statement region differs",    // R2 cannot extend the R run
	} {
		if why, rejected := whyOf[lhs]; !rejected {
			t.Errorf("%s unexpectedly fused", lhs)
		} else if !strings.Contains(why, want) {
			t.Errorf("%s rejection reason = %q, want one containing %q", lhs, why, want)
		}
	}
}

// TestOverlapEngages: a two-proc exchange of rows past overlapMinDoubles
// must defer at least one send asynchronously — and still match the
// NoOverlap oracle exactly.
func TestOverlapEngages(t *testing.T) {
	const src = `
program wide;
config var n : integer = 1200;
config var iters : integer = 4;
region R = [1..n, 1..n];
direction east = [0, 1]; west = [0, -1];
var A, B : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 + Index2 * 0.5;
  for it := 1 to iters do
    [R] B := (A@east + A@west) * 0.5;
    [R] A := B;
  end;
  [R] s := +<< A;
  writeln("s=", s);
end;
`
	prog, plan := compile(t, src)
	cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, Metrics: true}
	fast, err := Run(prog, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counterOf(fast, "overlap_async_sends") == 0 {
		t.Error("no sends overlapped despite rows past the async threshold")
	}
	cfg.NoOverlap = true
	oracle, err := Run(prog, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counterOf(oracle, "overlap_async_sends") != 0 {
		t.Error("NoOverlap oracle still overlapped sends")
	}
	mustMatch(t, "wide", fast, oracle)
}

// TestExprKey pins the structural keying that CSE reuse and the kill
// rule depend on: equal trees collide, different offsets/constants/ops
// do not, and read sets name exactly the arrays a subtree touches.
func TestExprKey(t *testing.T) {
	x := &ir.ArraySym{ID: 3}
	y := &ir.ArraySym{ID: 7}
	refE := func(a *ir.ArraySym) *ir.ArrayRef { return &ir.ArrayRef{Array: a, Off: grid.Offset{0, 1}} }
	refW := func(a *ir.ArraySym) *ir.ArrayRef { return &ir.ArrayRef{Array: a, Off: grid.Offset{0, -1}} }
	sum := func(a *ir.ArraySym) ir.Expr { return &ir.Binary{Op: zpl.PLUS, X: refE(a), Y: refW(a)} }

	k1, reads, ok := exprKey(sum(x))
	if !ok {
		t.Fatal("sum unkeyable")
	}
	k2, _, _ := exprKey(sum(x))
	if k1 != k2 {
		t.Errorf("structurally equal trees keyed differently: %q vs %q", k1, k2)
	}
	if len(reads) != 2 || reads[0] != 3 || reads[1] != 3 {
		t.Errorf("read set = %v, want [3 3]", reads)
	}
	distinct := map[string]string{}
	for name, e := range map[string]ir.Expr{
		"other-array":  sum(y),
		"other-op":     &ir.Binary{Op: zpl.MINUS, X: refE(x), Y: refW(x)},
		"other-offset": &ir.Binary{Op: zpl.PLUS, X: refE(x), Y: refE(x)},
		"const-bits":   &ir.Binary{Op: zpl.PLUS, X: refE(x), Y: &ir.Const{Val: 0.5}},
		"const-bits2":  &ir.Binary{Op: zpl.PLUS, X: refE(x), Y: &ir.Const{Val: 0.25}},
		"scalar":       &ir.Binary{Op: zpl.PLUS, X: refE(x), Y: &ir.ScalarRef{Sym: &ir.ScalarSym{ID: 2}}},
		"index":        &ir.Binary{Op: zpl.PLUS, X: refE(x), Y: &ir.IndexRef{Dim: 1}},
	} {
		k, _, keyed := exprKey(e)
		if !keyed {
			t.Fatalf("%s unkeyable", name)
		}
		if k == k1 {
			t.Errorf("%s collides with the base tree", name)
		}
		if prev, dup := distinct[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		distinct[k] = name
	}
	if _, _, keyed := exprKey(&ir.Reduce{X: refE(x)}); keyed {
		t.Error("Reduce keyed; must be conservatively unkeyable")
	}
}
