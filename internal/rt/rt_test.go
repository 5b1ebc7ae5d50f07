package rt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/zpl"
)

func compile(t *testing.T, src string) (*ir.Program, *comm.Plan) {
	t.Helper()
	ast, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog, comm.BuildPlan(prog, comm.PL())
}

func run(t *testing.T, src string, procs int, lib string, cfg map[string]float64) *Result {
	t.Helper()
	prog, plan := compile(t, src)
	res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: lib, Procs: procs, ConfigVars: cfg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestScalarControlFlow(t *testing.T) {
	src := `
program ctl;
region R = [1..4, 1..4];
var s, w : float;
procedure main();
begin
  s := 0.0;
  for i := 1 to 5 do s := s + i; end;           -- 15
  for i := 3 downto 1 do s := s + i * 10.0; end; -- +60 = 75
  w := 0.0;
  while w < 3.0 do w := w + 1.0; end;            -- 3
  repeat s := s + 1.0; until s >= 77.0;          -- 75->77
  if s = 77.0 then s := s + 0.5; elsif s > 100.0 then s := 0.0; else s := 1.0; end;
  writeln("s=", s, " w=", w);
end;
`
	res := run(t, src, 4, "pvm", nil)
	if got := strings.TrimSpace(res.Output); got != "s=77.5 w=3" {
		t.Fatalf("output = %q", got)
	}
}

func TestProcedureParams(t *testing.T) {
	src := `
program procs;
region R = [1..4, 1..4];
var s : float;
procedure addto(x : float; k : integer);
begin
  s := s + x * k;
end;
procedure main();
begin
  s := 0.0;
  addto(2.5, 4);
  addto(1.0, 1);
  writeln(s);
end;
`
	res := run(t, src, 1, "pvm", nil)
	if strings.TrimSpace(res.Output) != "11" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestShiftSemantics(t *testing.T) {
	src := `
program shift;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; se = [1, 1];
var A, B, C : [R] float;
procedure main();
begin
  [R] A := Index1 * 100.0 + Index2;
  [Int] B := A@east;
  [Int] C := A@se;
end;
`
	for _, procs := range []int{1, 4, 16} {
		res := run(t, src, procs, "pvm", nil)
		b, c := res.Array("B"), res.Array("C")
		for i := 2; i <= 7; i++ {
			for j := 2; j <= 7; j++ {
				if got, want := b.At(i, j, 1), float64(i*100+j+1); got != want {
					t.Fatalf("p%d: B(%d,%d) = %v, want %v", procs, i, j, got, want)
				}
				if got, want := c.At(i, j, 1), float64((i+1)*100+j+1); got != want {
					t.Fatalf("p%d: C(%d,%d) = %v, want %v", procs, i, j, got, want)
				}
			}
		}
	}
}

func TestWholeArraySemanticsSelfShift(t *testing.T) {
	// A := A@east must read the pre-assignment values everywhere.
	src := `
program selfshift;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A : [R] float;
procedure main();
begin
  [R] A := Index2;
  [Int] A := A@east;
end;
`
	res := run(t, src, 4, "pvm", nil)
	a := res.Array("A")
	for j := 2; j <= 7; j++ {
		if got := a.At(4, j, 1); got != float64(j+1) {
			t.Fatalf("A(4,%d) = %v, want %v", j, got, float64(j+1))
		}
	}
}

func TestGlobalBoundaryGhostsAreZero(t *testing.T) {
	src := `
program edge;
config var n : integer = 6;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B : [R] float;
procedure main();
begin
  [R] A := 1.0;
  [R] B := A@east; -- at column n this reads the uninitialized global ghost
end;
`
	res := run(t, src, 4, "pvm", nil)
	b := res.Array("B")
	if b.At(3, 6, 1) != 0 {
		t.Fatalf("B(3,n) = %v, want 0 (global ghost)", b.At(3, 6, 1))
	}
	if b.At(3, 5, 1) != 1 {
		t.Fatalf("B(3,5) = %v, want 1", b.At(3, 5, 1))
	}
}

func TestReductions(t *testing.T) {
	src := `
program reds;
config var n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var s, m, lo, pr : float;
procedure main();
begin
  [R] A := Index1 + Index2;
  [R] s := +<< A;
  [R] m := max<< A;
  [R] lo := min<< A;
  [1..2, 1..2] pr := *<< A;
  writeln(s, " ", m, " ", lo, " ", pr);
end;
`
	// sum over 8x8 of (i+j) = 2*8*sum(1..8) = 2*8*36 = 576; max 16; min 2;
	// product over [1..2,1..2] of {2,3,3,4} = 72.
	for _, procs := range []int{1, 4, 16} {
		res := run(t, src, procs, "pvm", nil)
		if got := strings.TrimSpace(res.Output); got != "576 16 2 72" {
			t.Fatalf("p%d: output = %q", procs, got)
		}
	}
}

func TestRank3Shift(t *testing.T) {
	src := `
program r3;
config var n : integer = 4;
region R3 = [1..n, 1..n, 1..n];
region I3 = [2..n-1, 2..n-1, 2..n-1];
direction xp = [1, 0, 0]; zp = [0, 0, 1];
var U, V, W : [R3] float;
procedure main();
begin
  [R3] U := Index1 * 100.0 + Index2 * 10.0 + Index3;
  [I3] V := U@xp;
  [I3] W := U@zp; -- third-dimension shift: local, no communication
end;
`
	res := run(t, src, 4, "pvm", nil)
	v, w := res.Array("V"), res.Array("W")
	if got := v.At(2, 3, 2); got != 332 {
		t.Fatalf("V(2,3,2) = %v, want 332", got)
	}
	if got := w.At(2, 3, 2); got != 233 {
		t.Fatalf("W(2,3,2) = %v, want 233", got)
	}
}

func TestThirdDimensionShiftNoMessages(t *testing.T) {
	src := `
program zonly;
config var n : integer = 4;
region R3 = [1..n, 1..n, 1..n];
region I3 = [1..n, 1..n, 2..n-1];
direction zp = [0, 0, 1];
var U, V : [R3] float;
procedure main();
begin
  [R3] U := Index3;
  [I3] V := U@zp;
end;
`
	res := run(t, src, 4, "pvm", nil)
	if res.Messages != 0 || res.DynamicTransfers != 0 {
		t.Fatalf("messages = %d, transfers = %d; want 0 (z shifts are local)", res.Messages, res.DynamicTransfers)
	}
}

func TestConfigOverride(t *testing.T) {
	src := `
program cfg;
config var n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var s : float;
procedure main();
begin
  [R] A := 1.0;
  [R] s := +<< A;
  writeln(s);
end;
`
	res := run(t, src, 4, "pvm", map[string]float64{"n": 12})
	if strings.TrimSpace(res.Output) != "144" {
		t.Fatalf("output = %q, want 144", res.Output)
	}
	prog, plan := compile(t, src)
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: map[string]float64{"bogus": 1}}); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
program det;
config var n : integer = 12;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; north = [-1, 0];
var A, B : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 * 3.0 + Index2;
  for t := 1 to 3 do
    [Int] B := 0.5 * (A@east + A@north);
    [Int] A := A + 0.1 * B;
    [Int] s := +<< A;
  end;
  writeln(s);
end;
`
	r1 := run(t, src, 9, "shmem", nil)
	r2 := run(t, src, 9, "shmem", nil)
	if r1.ExecTime != r2.ExecTime {
		t.Errorf("exec times differ: %v vs %v", r1.ExecTime, r2.ExecTime)
	}
	if r1.Output != r2.Output {
		t.Errorf("outputs differ: %q vs %q", r1.Output, r2.Output)
	}
	if i, ok := r1.SameBits(r2, "A"); !ok {
		t.Errorf("arrays differ at element %d", i)
	}
}

// TestSameBitsCatchesWhatMaxAbsDiffMisses: a NaN against a number and -0
// against +0 both read as zero difference to MaxAbsDiff; SameBits reports
// the first such element, and takes any two NaNs as equal.
func TestSameBitsCatchesWhatMaxAbsDiffMisses(t *testing.T) {
	result := func(vals ...float64) *Result {
		reg := grid.NewRegion(1, grid.Span{Lo: 1, Hi: len(vals)})
		return &Result{arrays: map[string]*Dense{"A": {Rank: 1, Reg: reg, data: vals}}}
	}
	base := result(1, 0, 2)
	for _, c := range []struct {
		name  string
		other *Result
		index int
	}{
		{"NaN", result(1, 0, math.NaN()), 2},
		{"signed zero", result(1, math.Copysign(0, -1), 2), 1},
	} {
		if d := base.MaxAbsDiff(c.other, "A"); d != 0 {
			t.Errorf("%s: MaxAbsDiff = %g; the premise is that it reads 0", c.name, d)
		}
		if i, ok := base.SameBits(c.other, "A"); ok || i != c.index {
			t.Errorf("%s: SameBits = (%d, %v), want (%d, false)", c.name, i, ok, c.index)
		}
	}
	if i, ok := base.SameBits(result(1, 0, 2), "A"); !ok || i != -1 {
		t.Errorf("identical arrays: SameBits = (%d, %v), want (-1, true)", i, ok)
	}
	nan := result(math.NaN())
	if i, ok := nan.SameBits(result(math.Copysign(math.NaN(), -1)), "A"); !ok {
		t.Errorf("NaNs of opposite sign: SameBits = (%d, %v), want (-1, true)", i, ok)
	}
}

func TestDynamicCountsScaleWithIterations(t *testing.T) {
	src := `
program dyn;
config var n : integer = 8;
config var iters : integer = 4;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] float;
procedure main();
begin
  [R] A := 1.0;
  for t := 1 to iters do
    [Int] B := A@east;
    [Int] A := B@east;
  end;
end;
`
	prog, plan := compile(t, src)
	for _, iters := range []float64{1, 4, 10} {
		res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: map[string]float64{"iters": iters}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.DynamicTransfers, 2*int(iters); got != want {
			t.Fatalf("iters=%v: dynamic = %d, want %d", iters, got, want)
		}
	}
}

func TestGhostTooWideRejected(t *testing.T) {
	src := `
program wide;
config var n : integer = 8;
region R = [1..n, 1..n];
direction far = [0, 3];
var A, B : [R] float;
procedure main();
begin
  [1..n, 1..n-3] B := A@far;
end;
`
	prog, plan := compile(t, src)
	// 8 columns over 4 mesh columns = 2-wide blocks < ghost 3.
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 16}); err == nil {
		t.Fatal("expected ghost-width rejection")
	}
	// One processor handles it fine.
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 1}); err != nil {
		t.Fatalf("serial run failed: %v", err)
	}
}

func TestUnknownLibraryRejected(t *testing.T) {
	src := "program p; region R = [1..4, 1..4]; var A : [R] float; procedure main(); begin [R] A := 1.0; end;"
	prog, plan := compile(t, src)
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "mpi", Procs: 4}); err == nil {
		t.Fatal("unknown library accepted")
	}
}

func TestWritelnOnlyRankZero(t *testing.T) {
	src := "program p; region R = [1..4, 1..4]; var A : [R] float; procedure main(); begin writeln(\"once\"); end;"
	res := run(t, src, 9, "pvm", nil)
	if res.Output != "once\n" {
		t.Fatalf("output = %q, want a single line", res.Output)
	}
}

// wavefrontSrc sweeps a literal one-row region down the array: the
// region's bounds read the loop variable, so every op of the loop body —
// the north transfer, the fused pair, the reduction — resolves a new
// region on every iteration. The triangular statement changes its row
// length every iteration, so its kernel cannot simply be re-targeted; the
// final statement's literal region reads only a config, so it is
// evaluated once per run.
const wavefrontSrc = `
program wave;
config var n : integer = 16;
region R = [1..n, 1..n];
direction north = [-1, 0]; east = [0, 1]; west = [0, -1];
var A, B : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 * 0.5 + Index2;
  [R] B := 0.0;
  [1..1, 1..n] A := 1.0;
  for i := 2 to n do
    [i..i, 2..n-1] begin
      A := A@north + 0.25 * (A@east + A@west);
      B := A * 2.0 + B;
    end;
    [i..i, 1..n] s := s + +<< A;
    [i..i, 1..i] B := B + A@north;
  end;
  [2..n-1, 2..n-1] B := B * 0.5 + A@east;
  writeln("s = ", s);
end;
`

// TestLiteralRegionWavefront runs a serialized row recurrence on every
// mesh size of interest under both binding styles and requires the
// kernel-and-fusion engine to match the interpreter and no-fusion oracles
// bit for bit — arrays, output, clocks and message counts — and every
// array element to match a serial reference.
func TestLiteralRegionWavefront(t *testing.T) {
	prog, plan := compile(t, wavefrontSrc)
	const n = 16
	ref := wavefrontReference(n)
	for _, procs := range []int{1, 4, 16, 64} {
		for _, lib := range []string{"pvm", "shmem"} {
			runWith := func(interp, noFuse bool) *Result {
				res, err := Run(prog, plan, Config{
					Machine: machine.T3D(), Library: lib, Procs: procs,
					ForceInterpreter: interp, ForceNoFusion: noFuse,
				})
				if err != nil {
					t.Fatalf("procs=%d %s interp=%v noFuse=%v: %v", procs, lib, interp, noFuse, err)
				}
				return res
			}
			got := runWith(false, false)
			label := fmt.Sprintf("procs=%d %s", procs, lib)
			mustMatch(t, label+" vs interpreter", got, runWith(true, false))
			mustMatch(t, label+" vs no-fusion", got, runWith(false, true))
			for name, want := range ref {
				d := got.Array(name)
				for i := 1; i <= n; i++ {
					for j := 1; j <= n; j++ {
						if v := d.At(i, j, 1); math.Float64bits(v) != math.Float64bits(want[i][j]) {
							t.Fatalf("%s: %s(%d,%d) = %v, serial reference %v", label, name, i, j, v, want[i][j])
						}
					}
				}
			}
		}
	}
}

// wavefrontReference evaluates wavefrontSrc's arrays serially in plain Go,
// operation for operation, as an oracle independent of the runtime.
func wavefrontReference(n int) map[string][][]float64 {
	grid2 := func() [][]float64 {
		g := make([][]float64, n+2)
		for i := range g {
			g[i] = make([]float64, n+2)
		}
		return g
	}
	A, B := grid2(), grid2()
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			A[i][j] = float64(i)*0.5 + float64(j)
		}
	}
	for j := 1; j <= n; j++ {
		A[1][j] = 1
	}
	for i := 2; i <= n; i++ {
		row := make([]float64, n+2)
		for j := 2; j <= n-1; j++ {
			row[j] = A[i-1][j] + 0.25*(A[i][j+1]+A[i][j-1])
		}
		for j := 2; j <= n-1; j++ {
			A[i][j] = row[j]
			B[i][j] = A[i][j]*2.0 + B[i][j]
		}
		for j := 1; j <= i; j++ {
			B[i][j] = B[i][j] + A[i-1][j]
		}
	}
	for i := 2; i <= n-1; i++ {
		for j := 2; j <= n-1; j++ {
			B[i][j] = B[i][j]*0.5 + A[i][j+1]
		}
	}
	return map[string][][]float64{"A": A, "B": B}
}

func TestMeshAssignment(t *testing.T) {
	res := run(t, "program p; region R = [1..8, 1..8]; var A : [R] float; procedure main(); begin [R] A := 1.0; end;", 8, "pvm", nil)
	if res.Mesh.Rows != 4 || res.Mesh.Cols != 2 {
		t.Fatalf("mesh = %v, want 4x2", res.Mesh)
	}
}

func TestBreakdownAccounts(t *testing.T) {
	src := `
program bd;
config var n : integer = 16;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] float;
procedure main();
begin
  [R] A := Index1 + Index2;
  for t := 1 to 4 do
    [Int] B := A@east * 1.0001;
    [Int] A := B@east + 0.5;
  end;
end;
`
	res := run(t, src, 4, "pvm", nil)
	bd := res.Breakdown
	if bd.Compute <= 0 || bd.Comm <= 0 {
		t.Fatalf("breakdown has empty categories: %+v", bd)
	}
	// The critical-path processor's categories sum to its clock, which is
	// the reported execution time.
	if bd.Total() != res.ExecTime {
		t.Fatalf("breakdown total %v != exec time %v", bd.Total(), res.ExecTime)
	}
	if len(res.PerProc) != 4 {
		t.Fatalf("per-proc breakdowns = %d, want 4", len(res.PerProc))
	}
	if f := bd.CommFraction(); f <= 0 || f >= 1 {
		t.Fatalf("comm fraction = %v", f)
	}
}
