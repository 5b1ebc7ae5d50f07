package rt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
)

// Differential tests for the kernel compiler's row primitives (kernel.go):
// scalar operands applied in place, two-level chained row ops, axpy, and
// the generic binary loop. Operands are seeded with NaN, ±Inf, ±0,
// subnormals and values near the overflow threshold, so any algebraic
// rewrite of a row loop — reassociation, x/s as x*(1/s), 0-x as -x —
// shows up as a bit difference against the closure interpreter.

// primHeader declares the seeded operands. On an 8×8 grid:
//
//	A = (i-3)/(j-3): NaN at (3,3), ±Inf down column 3, ±0 along row 3
//	B = (j-4)/(i-5): NaN at (5,4), ±Inf along row 5, ±0 down column 4
//	S = 4.9e-324*(i-j): subnormals of both signs, +0 on the diagonal
//	H = 1e308*(j-4.5): ±1.5e308 and beyond overflow to ±Inf
//
// and five scalars: -0, +Inf, NaN, 1e308 and the smallest subnormal.
const primHeader = `
program prim;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];
var A, B, S, H : [R] float;
var s0, s1, s2, s3, s4 : float;
`

const primSeed = `
  s0 := -0.0; s1 := 1.0 / 0.0; s2 := 0.0 / 0.0; s3 := 1.0e308; s4 := 4.9e-324;
  [R] A := (Index1 - 3.0) / (Index2 - 3.0);
  [R] B := (Index2 - 4.0) / (Index1 - 5.0);
  [R] S := 4.9e-324 * (Index1 - Index2);
  [R] H := 1.0e308 * (Index2 - 4.5);
`

// primProgram wraps statements (run over Int, one fused block) into a
// program that declares one result array per statement.
func primProgram(stmts []string) string {
	var decl, body strings.Builder
	for n, s := range stmts {
		fmt.Fprintf(&decl, "var X%d : [R] float;\n", n)
		fmt.Fprintf(&body, "    X%d := %s;\n", n, s)
	}
	return primHeader + decl.String() + "procedure main();\nbegin\n" + primSeed +
		"  [Int] begin\n" + body.String() + "  end;\nend;\n"
}

var (
	primOps   = []string{"+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "and", "or"}
	primArith = []string{"+", "-", "*", "/"}
)

// primOpStmts covers one binary operator with no scalar operand, with the
// scalar on the right and on the left, each against an array view and
// against a computed row.
func primOpStmts(op string) []string {
	out := []string{
		fmt.Sprintf("A@east %s B", op),
		fmt.Sprintf("S@south %s H", op),
		fmt.Sprintf("(A - S) %s (H + B@west)", op),
	}
	for s := 0; s < 5; s++ {
		out = append(out,
			fmt.Sprintf("A %s s%d", op, s),
			fmt.Sprintf("s%d %s B", s, op),
			fmt.Sprintf("(A + S) %s s%d", op, s),
			fmt.Sprintf("s%d %s (H - B)", s, op),
		)
	}
	return out
}

// primChainStmts covers left-deep arithmetic chains of two to four
// operators over views, computed rows and scalars.
func primChainStmts() []string {
	var out []string
	for i, o1 := range primArith {
		for j, o2 := range primArith {
			out = append(out,
				fmt.Sprintf("(A %s B@east) %s H", o1, o2),
				fmt.Sprintf("(H %s H@west) %s H", o1, o2),
				fmt.Sprintf("(A %s B@east) %s B", o1, o2),
				fmt.Sprintf("((S + A) %s B) %s H@west", o1, o2),
				fmt.Sprintf("(s3 %s A) %s B", o1, o2),
				fmt.Sprintf("(A %s s%d) %s S", o1, (i+j)%5, o2),
			)
			for k, o3 := range primArith {
				out = append(out, fmt.Sprintf("((A %s B) %s S) %s H", o1, o2, o3))
				o4 := primArith[(i+j+k)%4]
				out = append(out, fmt.Sprintf("(((H %s A@north) %s B) %s S) %s A", o1, o2, o3, o4))
			}
		}
	}
	return append(out,
		"s1 * A + B",
		"A * s2 - B",
		"B + s0 * A",
		"0.25 * (A@east + A@west + A@north + A@south)",
		"0.0 - A",
		"(A + B) / s4",
	)
}

// primSharedSrc is a fused run whose members share the inner subtree
// (A@east + B) * S of a chain, so cross-member elimination must keep its
// memo row while the chain primitive applies everywhere else.
const primSharedSrc = primHeader + `
var F1, F2, F3, F4 : [R] float;
procedure main();
begin
` + primSeed + `
  [Int] begin
    F1 := (A@east + B) * S + H;
    F2 := (A@east + B) * S - A;
    F3 := ((A@east + B) * S) / H@west;
    F4 := ((A - B) * H + S) * F1;
  end;
end;
`

// primMatch runs src at 1 and 4 processors on compiled kernels, with
// fusion off, and on the interpreter, and requires every array to agree
// bit for bit and the kernel runs to have run no array statement on the
// interpreter.
func primMatch(t *testing.T, label, src string) {
	t.Helper()
	prog, plan := compile(t, src)
	for _, procs := range []int{1, 4} {
		runs := map[string]Config{
			"kernels":     {},
			"no-fusion":   {ForceNoFusion: true},
			"interpreter": {ForceInterpreter: true},
		}
		res := map[string]*Result{}
		for name, cfg := range runs {
			cfg.Machine, cfg.Library, cfg.Procs, cfg.Metrics = machine.T3D(), "pvm", procs, true
			r, err := Run(prog, plan, cfg)
			if err != nil {
				t.Fatalf("%s p%d %s: %v", label, procs, name, err)
			}
			res[name] = r
		}
		for _, name := range []string{"kernels", "no-fusion"} {
			if n := counterOf(res[name], "stmts_interp"); n != 0 {
				t.Errorf("%s p%d %s: %d array statements ran on the interpreter", label, procs, name, n)
			}
			for _, a := range prog.Arrays {
				if i, ok := res[name].SameBits(res["interpreter"], a.Name); !ok {
					t.Errorf("%s p%d %s: array %s element %d differs from the interpreter", label, procs, name, a.Name, i)
				}
			}
		}
		if counterOf(res["kernels"], "stmts_fused") == 0 {
			t.Errorf("%s p%d: the statement block did not fuse", label, procs)
		}
		if procs == 1 {
			checkSeeds(t, res["interpreter"])
		}
	}
}

// checkSeeds guards the test's premise: the operands really hold the
// special values the header promises.
func checkSeeds(t *testing.T, r *Result) {
	t.Helper()
	a, s, h := r.Array("A"), r.Array("S"), r.Array("H")
	checks := []struct {
		what string
		ok   bool
	}{
		{"A(3,3) is NaN", math.IsNaN(a.At(3, 3, 1))},
		{"A(2,3) is -Inf", math.IsInf(a.At(2, 3, 1), -1)},
		{"A(3,2) is -0", a.At(3, 2, 1) == 0 && math.Signbit(a.At(3, 2, 1))},
		{"S(2,1) is subnormal", s.At(2, 1, 1) > 0 && s.At(2, 1, 1) < 0x1p-1022},
		{"H(1,6) is near overflow", h.At(1, 6, 1) == 1.5e308},
		{"H(1,8) is +Inf", math.IsInf(h.At(1, 8, 1), 1)},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("seed premise failed: %s", c.what)
		}
	}
}

// TestRowPrimitivesMatchInterpreter runs every binary operator with the
// scalar on either side or absent, and left-deep chains of two to four
// operators, on compiled kernels and on the interpreter.
func TestRowPrimitivesMatchInterpreter(t *testing.T) {
	for _, op := range primOps {
		primMatch(t, "op "+op, primProgram(primOpStmts(op)))
	}
	primMatch(t, "chains", primProgram(primChainStmts()))
	primMatch(t, "shared inner subtree", primSharedSrc)
}

// TestStencilNeedsNoScratch pins the shape of the scaled four-point
// stencil: the scalar multiplies in place and the sum runs as a chained
// pass, so the kernel reserves no scratch row. A regression to
// broadcasting the constant into a scratch row fails here.
func TestStencilNeedsNoScratch(t *testing.T) {
	prog, plan := compile(t, primHeader+`
var C : [R] float;
procedure main();
begin
  [Int] C := 0.25 * (A@east + A@west + A@north + A@south);
end;
`)
	w, err := newWorld(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stmt *ir.AssignArray
	for _, bp := range plan.Blocks {
		for _, s := range bp.Stmts {
			if a, ok := s.(*ir.AssignArray); ok && a.LHS.Name == "C" {
				stmt = a
			}
		}
	}
	var local grid.Region
	for _, r := range prog.Regions {
		if r.Name == "Int" {
			local = w.regionVals[r.ID]
		}
	}
	k := w.procs[0].compileKernel(stmt, local)
	if k == nil {
		t.Fatal("stencil did not compile to a kernel")
	}
	if k.slots != 0 {
		t.Errorf("stencil kernel reserves %d scratch rows, want 0", k.slots)
	}
}
