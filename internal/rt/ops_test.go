package rt

import (
	"math/rand"
	"reflect"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
)

// Tests of the op stream (ops.go): clipping a comm schedule's region to
// the processor's block neighbourhood is exact, loop-variant regions
// resolve identically to the interpreter and no-fusion oracles, and the
// canonical keys keep the number of compiled schedules bounded.

// clipSrc declares arrays of every rank over the anchoring 1..17 span and
// over wider spans, whose out-of-range indices the edge blocks own.
const clipSrc = `
program clip;
config var n : integer = 17;
region R2 = [1..n, 1..n];
region R1 = [1..n];
region R3 = [1..n, 1..n, 1..4];
region W1 = [-1..n+2];
region W2 = [-1..n+2, 0..n+3];
region W3 = [0..n+1, -2..n+1, 1..3];
direction e1 = [1]; e2 = [0, 1]; e3 = [1, 0, 0];
var A1 : [R1] float;
var A2 : [R2] float;
var A3 : [R3] float;
var B1 : [W1] float;
var B2 : [W2] float;
var B3 : [W3] float;
procedure main();
begin
  [R1] A1 := A1@e1 + B1@e1;
  [R2] A2 := A2@e2 + B2@e2;
  [R3] A3 := A3@e3 + B3@e3;
end;
`

// TestClipPreservesGeometry checks the exactness argument of proc.clip by
// brute force: on a mesh whose blocks split the problem unevenly in both
// dimensions, every processor derives identical send and receive
// rectangles from a random region and from its clipped key — for rank-1,
// rank-2 and rank-3 regions, including empty ones and ones reaching past
// the declared bounds on either side, for transfers of arrays declared
// over the anchoring region and over wider ones. Offsets reach past a
// whole block, so the check does not lean on ghost widths being small.
func TestClipPreservesGeometry(t *testing.T) {
	prog, plan := compile(t, clipSrc)
	w, err := newWorld(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 15})
	if err != nil {
		t.Fatal(err)
	}
	if w.mesh.Rows != 5 || w.mesh.Cols != 3 {
		t.Fatalf("mesh %v, want 5x3 (uneven 17-wide splits)", w.mesh)
	}
	arrays := map[int][]*ir.ArraySym{}
	for _, a := range prog.Arrays {
		arrays[a.Region.RankN] = append(arrays[a.Region.RankN], a)
	}
	rng := rand.New(rand.NewSource(1))
	span := func() grid.Span {
		lo := rng.Intn(27) - 5 // -5..21 around the anchoring 1..17
		if rng.Intn(6) == 0 {
			return grid.Span{Lo: lo, Hi: lo - 1 - rng.Intn(3)} // empty
		}
		return grid.Span{Lo: lo, Hi: lo + rng.Intn(10)}
	}
	checked, clipped := 0, 0
	for rank := 1; rank <= 3; rank++ {
		for trial := 0; trial < 400; trial++ {
			spans := make([]grid.Span, rank)
			for d := range spans {
				spans[d] = span()
			}
			reg := grid.NewRegion(rank, spans...)
			var off grid.Offset
			for off.IsZero() || !off.NeedsComm() {
				off = grid.Offset{rng.Intn(13) - 6, rng.Intn(13) - 6, 0}
				if rank == 1 {
					off[1] = 0
				}
			}
			tr := &comm.Transfer{Offset: off, Items: arrays[rank]}
			for _, p := range w.procs {
				key := p.clip(reg)
				if key != reg {
					clipped++
				}
				want, got := p.geometry(tr, reg), p.geometry(tr, key)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("proc %d (%d,%d), rank %d, region %v, offset %v: clipped key %v changes geometry\n got %+v\nwant %+v",
						p.rank, p.row, p.col, rank, reg, off, key, got, want)
				}
				checked++
			}
		}
	}
	if clipped < checked/4 {
		t.Fatalf("only %d of %d keys were clipped; the property is vacuous", clipped, checked)
	}
}

// TestTomcatvScheduleCount pins how many comm schedules tomcatv compiles
// at 64 processors. Its wavefront sweeps mint a new global region every
// iteration; clipping to the block neighbourhood lets every processor
// share one key for all the rows it neither owns nor borders, which is
// what keeps the count — and the memory the schedules hold — small.
func TestTomcatvScheduleCount(t *testing.T) {
	bench, err := programs.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	prog, plan := compile(t, bench.Source)
	cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: 64, ConfigVars: bench.CalibConfig}
	w, err := newWorld(prog, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(cfg); err != nil {
		t.Fatal(err)
	}
	const limit = 5100
	if w.schedsBuilt > limit {
		t.Fatalf("tomcatv at 64 procs compiled %d comm schedules, want <= %d", w.schedsBuilt, limit)
	}
	t.Logf("tomcatv at 64 procs compiled %d comm schedules", w.schedsBuilt)
}

// TestRetargetedKernelKeepsHaloCheck sweeps a read of a shorter array
// down the rows: B covers only the top half, so once the row is past B's
// halo the read falls outside it. Re-targeting the slot's kernel must
// refuse that row (its compile checks fail there), so the run reaches
// the interpreter's precise out-of-halo error, exactly as with kernels
// disabled.
func TestRetargetedKernelKeepsHaloCheck(t *testing.T) {
	src := `
program halo;
config var n : integer = 8;
region R = [1..n, 1..n];
region Top = [1..n/2, 1..n];
direction north = [-1, 0];
var A : [R] float;
var B : [Top] float;
procedure main();
begin
  [Top] B := Index1;
  for i := 2 to n do
    [i..i, 1..n] A := B@north + 1.0;
  end;
end;
`
	prog, plan := compile(t, src)
	errOf := func(interp bool) error {
		_, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 1, ForceInterpreter: interp})
		return err
	}
	want := errOf(true)
	if want == nil {
		t.Fatal("interpreter accepted a read outside the halo")
	}
	if got := errOf(false); got == nil || got.Error() != want.Error() {
		t.Fatalf("kernel engine error %v, interpreter %v", got, want)
	}
}
