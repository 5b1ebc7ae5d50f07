package rt

import (
	"math"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
)

// This file lowers the program, once per world, into its op stream: every
// planned basic block becomes one flat, immutable list of ops — its
// IRONMAN calls, statements and fused runs in execution order, with the
// plan's call positions and the static fusion analysis folded in — and
// every structured body becomes a list of segments pointing straight at
// those lists and at the lowered bodies of its control statements. All
// processors share the stream read-only.
//
// What a processor resolves for an op (a transfer's compiled schedule, a
// statement's kernel, a fused run's kernel, a reduction partial's kernel)
// lives in that processor's flat slot array, indexed by the op's slot
// ID, together with the key it was resolved for. Regions are classified
// at lowering:
//
//   - invariant regions (declared regions, and literal bounds that read
//     only never-assigned configs and constants) are evaluated once per
//     world, so an invariant op resolves its slot on first execution and
//     never again;
//   - loop-variant regions (literal bounds reading loop variables or
//     other assigned scalars, as in wavefront sweeps) are evaluated
//     without allocating, at most once per scalar write: ops sharing one
//     region reference share the evaluation (proc.evalRegion). Each op
//     maps the region to a canonical key, and only a key that differs
//     from the slot's is resolved again — by re-targeting the slot's
//     kernel at the new region when its validity checks pass
//     (slot.retargetKernel), otherwise through the bounded struct-keyed
//     caches behind it.
//
// The canonical keys are what make loop-variant ops cheap. A kernel or a
// fused kernel reads its region only through the processor's local
// region, so the local region is the key. A comm schedule reads its
// region only through the local regions of this processor and of its
// mesh neighbors (geometry), so the key is the region clipped, in the
// distributed dimensions, to the 3×3 block neighbourhood (proc.clip);
// every row of a sweep that lies outside the neighbourhood maps to the
// same canonical empty key.

// opKind says what an op executes.
type opKind uint8

const (
	opCall  opKind = iota // one IRONMAN call
	opStmt                // one straight-line statement
	opFused               // a fusable run; its members' opStmt ops follow it
)

// op is one step of a lowered basic block.
type op struct {
	kind opKind
	// open marks the first call of a transfer's DR..SV sequence in the
	// block: it resolves the schedule the sequence's later calls use.
	open bool
	// slot indexes proc.slots: the transfer's schedule (every call of one
	// sequence shares it), the array statement's kernel, the fused run's
	// kernel, or — for a reducing scalar assignment — the first of one
	// slot per entry of reduces. -1 when the op resolves nothing.
	slot    int
	call    comm.Call    // opCall
	stmt    ir.Stmt      // opStmt
	run     *fuseRun     // opFused
	reg     *opRegion    // the region the op resolves against (an opCall's only when open)
	reduces []*ir.Reduce // reductions of a reducing scalar assignment, in walk order
}

// opRegion is an op's region reference with its lowering-time class.
// Ops whose region references are identical share one opRegion.
type opRegion struct {
	expr ir.RegionExpr
	inv  bool        // invariant: val is the evaluated region
	val  grid.Region // valid when inv
	id   int         // loop-variant: index into proc.regs
}

// regCache is one processor's latest evaluation of a loop-variant region:
// valid while no scalar has been written since (proc.gen).
type regCache struct {
	gen uint64
	reg grid.Region
}

// seg is one lowered segment of a structured body: a basic block's op
// stream, or a control statement with its lowered children.
type seg struct {
	ctl  ir.Stmt // nil for a basic block
	ops  []op    // the block's ops; for a loop, its hoisted preheader transfers
	body []seg   // loop body, If's Then, or a Call's procedure body
	els  []seg   // If's Else
}

// slot is one processor's resolution of one op: the compiled entry and
// the key it was resolved for. ok distinguishes a resolved nil kernel
// (the statement runs on the interpreter) from an unresolved slot; own
// says the kernel is the slot's private copy, re-targeted in place.
type slot struct {
	key grid.Region
	ok  bool
	own bool
	st  *commSched
	k   *kernel
	rk  *reduceKernel
	fk  *fusedKernel
}

// lowerer builds a world's op stream.
type lowerer struct {
	w       *world
	fuse    bool                   // fold the static fusion analysis in
	bodies  map[*ir.Stmt][]seg     // lowered bodies by their first statement
	written map[*ir.ScalarSym]bool // scalars some statement assigns
	regions map[ir.RegionExpr]*opRegion
	env     *scalarEnv
	nslots  int
	nregs   int
}

// lower builds the op stream of every body reachable from main and sets
// w.main, w.nslots and w.nregs.
func (w *world) lower(fuse bool) {
	lw := &lowerer{
		w: w, fuse: fuse,
		bodies:  map[*ir.Stmt][]seg{},
		written: map[*ir.ScalarSym]bool{},
		regions: map[ir.RegionExpr]*opRegion{},
		env:     &scalarEnv{vals: w.configVals},
	}
	lw.collectWrites(w.prog.Main.Body)
	for _, pr := range w.prog.Procs {
		lw.collectWrites(pr.Body)
	}
	w.main = lw.body(w.prog.Main.Body)
	w.nslots, w.nregs = lw.nslots, lw.nregs
}

// collectWrites records every scalar a statement list can assign: scalar
// assignment targets, loop variables and procedure parameters.
func (lw *lowerer) collectWrites(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.AssignScalar:
			lw.written[s.LHS] = true
		case *ir.If:
			lw.collectWrites(s.Then)
			lw.collectWrites(s.Else)
		case *ir.Repeat:
			lw.collectWrites(s.Body)
		case *ir.While:
			lw.collectWrites(s.Body)
		case *ir.For:
			lw.written[s.Var] = true
			lw.collectWrites(s.Body)
		case *ir.Call:
			for _, prm := range s.Proc.Params {
				lw.written[prm] = true
			}
		}
	}
}

// body lowers one structured statement list. A list is lowered once no
// matter how many places reach it (a procedure called from several
// sites), so its ops — and every processor's slots for them — are shared.
func (lw *lowerer) body(stmts []ir.Stmt) []seg {
	if len(stmts) == 0 {
		return nil
	}
	if b, ok := lw.bodies[&stmts[0]]; ok {
		return b
	}
	var out []seg
	for _, sg := range comm.SplitSegments(stmts) {
		if sg.Block != nil {
			out = append(out, seg{ops: lw.block(sg.Block)})
			continue
		}
		out = append(out, lw.control(sg.Control))
	}
	lw.bodies[&stmts[0]] = out
	return out
}

func (lw *lowerer) control(s ir.Stmt) seg {
	sg := seg{ctl: s}
	switch s := s.(type) {
	case *ir.If:
		sg.body = lw.body(s.Then)
		sg.els = lw.body(s.Else)
	case *ir.Repeat:
		sg.ops = lw.preheader(s)
		sg.body = lw.body(s.Body)
	case *ir.While:
		sg.ops = lw.preheader(s)
		sg.body = lw.body(s.Body)
	case *ir.For:
		sg.ops = lw.preheader(s)
		sg.body = lw.body(s.Body)
	case *ir.Call:
		// The subset forbids recursion, so lowering the callee terminates.
		sg.body = lw.body(s.Proc.Body)
	}
	return sg
}

// preheader lowers a loop's hoisted transfers: each runs its full
// synchronous IRONMAN sequence once, immediately before the loop.
func (lw *lowerer) preheader(loop ir.Stmt) []op {
	var ops []op
	for _, t := range lw.w.plan.Preheader(loop) {
		id := lw.slots(1)
		reg := lw.region(t.Region)
		for _, kind := range []comm.CallKind{comm.DR, comm.SR, comm.DN, comm.SV} {
			ops = append(ops, op{kind: opCall, open: kind == comm.DR, slot: id, call: comm.Call{Kind: kind, T: t}, reg: reg})
		}
	}
	return ops
}

// block lowers one planned basic block: IRONMAN calls interleave with the
// statements at their scheduled positions, and each statically fusable
// run is preceded by its opFused op.
func (lw *lowerer) block(stmts []ir.Stmt) []op {
	bp := lw.w.plan.BlockFor(stmts[0])
	if bp == nil {
		panic("rt: basic block missing from plan")
	}
	var runs []*fuseRun
	if lw.fuse {
		runs = fusionRuns(bp, nil)
	}
	var ops []op
	open := map[*comm.Transfer]int{} // transfer -> slot of its open sequence
	ri := 0
	for pos := 0; pos <= len(stmts); pos++ {
		for _, c := range bp.Calls[pos] {
			o := op{kind: opCall, call: c}
			if id, ok := open[c.T]; ok {
				o.slot = id
			} else {
				o.open = true
				o.slot = lw.slots(1)
				o.reg = lw.region(c.T.Region)
				open[c.T] = o.slot
			}
			if c.Kind == comm.SV {
				delete(open, c.T)
			}
			ops = append(ops, o)
		}
		if pos == len(stmts) {
			break
		}
		if ri < len(runs) && runs[ri].start == pos {
			// The static legality check guarantees no call sits inside the
			// run, so its members' ops follow contiguously.
			fr := runs[ri]
			ops = append(ops, op{kind: opFused, slot: lw.slots(1), run: fr, reg: lw.region(fr.stmts[0].Region)})
			ri++
		}
		ops = append(ops, lw.stmt(stmts[pos]))
	}
	return ops
}

func (lw *lowerer) stmt(s ir.Stmt) op {
	o := op{kind: opStmt, stmt: s, slot: -1}
	switch s := s.(type) {
	case *ir.AssignArray:
		o.slot = lw.slots(1)
		o.reg = lw.region(s.Region)
	case *ir.AssignScalar:
		if s.HasReduce {
			o.reg = lw.region(s.Region)
			o.reduces = reducesOf(s.RHS, nil)
			o.slot = lw.slots(len(o.reduces))
		}
	}
	return o
}

// reducesOf collects the reductions evalWithReduce reaches in e.
func reducesOf(e ir.Expr, out []*ir.Reduce) []*ir.Reduce {
	switch e := e.(type) {
	case *ir.Reduce:
		out = append(out, e)
	case *ir.Unary:
		out = reducesOf(e.X, out)
	case *ir.Binary:
		out = reducesOf(e.X, out)
		out = reducesOf(e.Y, out)
	case *ir.Intrinsic:
		for _, a := range e.Args {
			out = reducesOf(a, out)
		}
	}
	return out
}

// slots reserves n consecutive slot IDs and returns the first.
func (lw *lowerer) slots(n int) int {
	id := lw.nslots
	lw.nslots += n
	return id
}

// region classifies one region reference. Literal bounds are invariant
// when they read only never-assigned configs and constants and evaluate
// to integers now; anything else (loop variables, assigned scalars, a
// bound that is not an integer) stays loop-variant, so it evaluates — and
// fails, if it must — at execution exactly as before.
func (lw *lowerer) region(re ir.RegionExpr) *opRegion {
	if r, ok := lw.regions[re]; ok {
		return r
	}
	r := &opRegion{expr: re}
	lw.regions[re] = r
	if re.Sym != nil {
		r.inv, r.val = true, lw.w.regionVals[re.Sym.ID]
		return r
	}
	variant := func() *opRegion {
		r.id = lw.nregs
		lw.nregs++
		return r
	}
	for d := 0; d < re.RankN; d++ {
		if !lw.invariant(re.Bounds[d][0]) || !lw.invariant(re.Bounds[d][1]) {
			return variant()
		}
	}
	reg, err := evalRegionBounds(lw.env, re.RankN, re.Bounds)
	if err != nil {
		return variant()
	}
	r.inv, r.val = true, reg
	return r
}

// invariant reports whether a scalar expression's value is fixed for the
// whole run.
func (lw *lowerer) invariant(e ir.Expr) bool {
	switch e := e.(type) {
	case *ir.Const:
		return true
	case *ir.ScalarRef:
		k := e.Sym.Kind
		return (k == ir.ConfigVar || k == ir.ConstVar) && !lw.written[e.Sym]
	case *ir.Unary:
		return lw.invariant(e.X)
	case *ir.Binary:
		return lw.invariant(e.X) && lw.invariant(e.Y)
	case *ir.Intrinsic:
		for _, a := range e.Args {
			if !lw.invariant(a) {
				return false
			}
		}
		return true
	}
	return false
}

// evalRegion resolves an op's region to global index spans. Loop-variant
// bounds evaluate into the region value directly (no span slice), laid
// out exactly as grid.NewRegion would, and only when a scalar has been
// written since this region was last evaluated: bounds read nothing but
// scalars, so until then the cached value is exact.
func (p *proc) evalRegion(r *opRegion) grid.Region {
	if r.inv {
		return r.val
	}
	c := &p.regs[r.id]
	if c.gen == p.gen {
		return c.reg
	}
	re := &r.expr
	reg := grid.Region{Rank: re.RankN}
	for d := range reg.Spans {
		if d >= re.RankN {
			reg.Spans[d] = grid.Span{Lo: 1, Hi: 1}
			continue
		}
		reg.Spans[d] = grid.Span{
			Lo: p.evalInt(re.Bounds[d][0], "region bound"),
			Hi: p.evalInt(re.Bounds[d][1], "region bound"),
		}
	}
	c.gen, c.reg = p.gen, reg
	return reg
}

// emptyRegion is the canonical empty region of a rank: every resolution
// key that covers no index collapses to it.
func emptyRegion(rank int) grid.Region {
	reg := grid.Region{Rank: rank}
	for d := range reg.Spans {
		reg.Spans[d] = grid.Span{Lo: 1, Hi: 1}
		if d < rank {
			reg.Spans[d] = grid.Span{Lo: 1, Hi: 0}
		}
	}
	return reg
}

// canonical maps every empty region to emptyRegion and leaves the rest.
func canonical(reg grid.Region) grid.Region {
	if reg.Empty() {
		return emptyRegion(reg.Rank)
	}
	return reg
}

// blockWindow returns the global indices of dimension-master blocks b-1,
// b and b+1 of p, extended to ±∞ wherever the window reaches an edge
// block (edge blocks absorb indices outside the master span, see
// localSpan). Every such block's localSpan of a declared span depends
// only on the declared span's intersection with this window.
func blockWindow(master grid.Span, p, b int) grid.Span {
	w := grid.Span{Lo: math.MinInt, Hi: math.MaxInt}
	if b-1 > 0 {
		w.Lo = master.Lo + grid.BlockSpan(master.Len(), p, b-1).Lo - 1
	}
	if b+1 < p-1 {
		w.Hi = master.Lo + grid.BlockSpan(master.Len(), p, b+1).Hi - 1
	}
	return w
}

// clip canonicalises a transfer's statement region for this processor:
// the region intersected, in each distributed dimension, with the 3×3
// block neighbourhood, and every empty result collapsed to one key.
//
// geometry reads the region only through localRegion of this processor
// and of its mesh neighbors, all inside the neighbourhood, and each of
// those local spans is block ∩ region with block ⊆ window — so it equals
// block ∩ (region ∩ window) and the clipped region yields the same
// rectangles. Whenever the clipped region is empty, every local region
// in the window is empty, and so is every rectangle derived from it.
// TestClipPreservesGeometry checks this over uneven meshes.
func (p *proc) clip(reg grid.Region) grid.Region {
	n := reg.Rank
	if n > 2 {
		n = 2
	}
	for d := 0; d < n; d++ {
		reg.Spans[d] = reg.Spans[d].Intersect(p.window[d])
	}
	return canonical(reg)
}
