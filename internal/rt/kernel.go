package rt

import (
	"math"

	"commopt/internal/field"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// This file implements the kernel-compiled execution engine: each
// whole-array statement (and each local reduction partial) is lowered
// once per (statement, local region) into a flat loop nest that walks the
// fields' backing []float64 slices directly. Rows run along the last
// dimension of the statement's rank, which is contiguous in every field
// of that rank, so an @-shift becomes a constant flat-index delta and the
// inner loops carry no per-element At/Set bounds math or closure
// dispatch. Regions are loop-invariant for declared regions (and nearly
// so for literal-bound regions), so kernels are cached per processor and
// amortize to zero compile cost. Virtual-time charges are computed from
// size*Flops exactly as before, so simulated results are unaffected; only
// host wall-clock changes. The closure interpreter (eval.go) remains both
// the fallback for shapes the compiler rejects and the differential-
// testing oracle (Config.ForceInterpreter).

// kernelCacheLimit bounds the per-processor kernel cache. Programs whose
// literal region bounds vary per iteration (wavefront sweeps) mint one
// kernel per distinct region; past the limit the cache is simply dropped
// and rebuilt, keeping memory bounded at a negligible recompile cost.
const kernelCacheLimit = 4096

// kernelKey identifies one compiled assignment kernel.
type kernelKey struct {
	stmt  *ir.AssignArray
	local grid.Region
}

// reduceKey identifies one compiled reduction-partial kernel.
type reduceKey struct {
	expr  *ir.Reduce
	local grid.Region
}

// storeMode says how an assignment kernel honors whole-array semantics
// (the RHS is fully evaluated before the store).
type storeMode int

const (
	// storeDirect streams rows straight into the LHS: legal when the RHS
	// never reads the LHS.
	storeDirect storeMode = iota
	// storeRow stages each row in scratch before copying it to the LHS:
	// legal when the RHS reads the LHS only at offsets confined to the
	// row (zero in every outer dimension).
	storeRow
	// storeFull stages the entire result in the arena first: required
	// when the RHS reads the LHS across rows (nonzero outer offset).
	storeFull
)

// kctx is the per-row evaluation context threaded through vec closures.
// One lives in each proc and is reused by every kernel execution.
type kctx struct {
	i, j, k int       // global coordinates of the row's first element
	scratch []float64 // slot rows for intermediate results, arena-backed
	gen     int64     // fused-sweep row generation, keys memoized rows (fuse.go)
}

// coord returns the row-start coordinate along dimension d.
func (c *kctx) coord(d int) int {
	switch d {
	case 0:
		return c.i
	case 1:
		return c.j
	default:
		return c.k
	}
}

// vec evaluates one row of a compiled (sub)expression: it either fills
// dst and returns it, or returns a view straight into a field's backing
// array (array references are zero-copy).
type vec func(c *kctx, dst []float64) []float64

// kernel is one compiled whole-array assignment, fixed to a statement and
// the exact local region it iterates.
type kernel struct {
	lhs   *field.Field
	ldata []float64
	local grid.Region
	inner int // row dimension (rank-1)
	L     int // row length
	rows  int
	slots int // scratch rows needed by the expression tree
	mode  storeMode
	row   vec

	// reads lists the containment checks the compile passed (the LHS and
	// every array reference). The compiled closures depend on the region
	// only through L and inner, so the kernel is valid for any other
	// local region with the same row length that passes the same checks
	// (slot.retargetKernel).
	reads []fieldRead
}

// fieldRead is one containment check of a kernel compile: the local
// region shifted by off must lie inside f's allocation (halo included).
type fieldRead struct {
	f   *field.Field
	off grid.Offset
}

// fits reports whether local, with row length L along inner, passes a
// compile's checks, so a kernel compiled elsewhere is exact for it.
func fits(reads []fieldRead, local grid.Region, inner, L int) bool {
	if local.Spans[inner].Len() != L {
		return false
	}
	for _, r := range reads {
		if !r.f.Contains(local.Shift(r.off)) {
			return false
		}
	}
	return true
}

// retargetKernel points the slot's kernel at a new local region without
// compiling, and reports whether it could: local must pass the checks
// the kernel was compiled under. The result is exactly what compiling
// the statement over local would build — the closures are shared, only
// the region and its row count change. The first re-target copies a
// cached kernel into the slot; later ones update that copy in place, so
// a sweep neither compiles nor allocates per row.
func (sl *slot) retargetKernel(local grid.Region) bool {
	k := sl.k
	if k == nil || !fits(k.reads, local, k.inner, k.L) {
		return false
	}
	if !sl.own {
		c := *k
		k, sl.k, sl.own = &c, &c, true
	}
	k.local, k.rows = local, local.Size()/k.L
	return true
}

// reduceKernel computes one reduction's local partial as a fused
// map-reduce over the processor's part of the statement region.
type reduceKernel struct {
	op    ir.ReduceOp
	local grid.Region
	inner int
	L     int
	slots int
	row   vec
	reads []fieldRead // as kernel.reads
}

// retargetReduce is retargetKernel for a reduction partial's slot.
func (sl *slot) retargetReduce(local grid.Region) bool {
	k := sl.rk
	if k == nil || !fits(k.reads, local, k.inner, k.L) {
		return false
	}
	if !sl.own {
		c := *k
		k, sl.rk, sl.own = &c, &c, true
	}
	k.local = local
	return true
}

// forRows visits the first element of every row of reg in row-major
// order, rows running along dimension inner.
func forRows(reg grid.Region, inner int, fn func(i, j, k int)) {
	s := reg.Spans
	switch inner {
	case 0:
		fn(s[0].Lo, s[1].Lo, s[2].Lo)
	case 1:
		for i := s[0].Lo; i <= s[0].Hi; i++ {
			fn(i, s[1].Lo, s[2].Lo)
		}
	default:
		for i := s[0].Lo; i <= s[0].Hi; i++ {
			for j := s[1].Lo; j <= s[1].Hi; j++ {
				fn(i, j, s[2].Lo)
			}
		}
	}
}

// kernelFor returns the cached kernel for (s, local), compiling on first
// use. nil means "use the interpreter": either kernels are disabled for
// the run or the statement failed compile-time validation (the nil is
// memoized so validation cost is paid once). Callers resolve through an
// op slot first, so only a changed local region reaches this cache.
func (p *proc) kernelFor(s *ir.AssignArray, local grid.Region) *kernel {
	if p.w.interp {
		return nil
	}
	key := kernelKey{s, local}
	k, ok := p.kernels[key]
	if !ok {
		k = p.compileKernel(s, local)
		if len(p.kernels) >= kernelCacheLimit {
			p.kernels = map[kernelKey]*kernel{}
		}
		p.kernels[key] = k
	}
	return k
}

// reduceKernel is kernelFor for the reduction partial e of a reducing
// scalar assignment o, resolved through the reduction's own slot. Empty
// local regions stay on the interpreter path (whose ForEach visits
// nothing).
func (p *proc) reduceKernel(o *op, e *ir.Reduce, local grid.Region) *reduceKernel {
	if p.w.interp || local.Empty() {
		return nil
	}
	id := o.slot
	for o.reduces[id-o.slot] != e {
		id++
	}
	sl := &p.slots[id]
	if sl.ok && sl.key == local {
		return sl.rk
	}
	sl.key, sl.ok = local, true
	if sl.retargetReduce(local) {
		return sl.rk
	}
	key := reduceKey{e, local}
	k, ok := p.rkernels[key]
	if !ok {
		kc := &kcompiler{p: p, local: local, inner: local.Rank - 1, L: local.Spans[local.Rank-1].Len(), ok: true}
		row := kc.node(e.X)
		if kc.ok {
			k = &reduceKernel{op: e.Op, local: local, inner: kc.inner, L: kc.L, slots: kc.slots, row: row, reads: kc.reads}
		}
		if len(p.rkernels) >= kernelCacheLimit {
			p.rkernels = map[reduceKey]*reduceKernel{}
		}
		p.rkernels[key] = k
	}
	sl.rk, sl.own = k, false
	return k
}

// compileKernel lowers one assignment over one local region, or returns
// nil when the interpreter must handle it (unallocated LHS, reads outside
// the halo — which the interpreter turns into its precise panic — or a
// non-contiguous row).
func (p *proc) compileKernel(s *ir.AssignArray, local grid.Region) *kernel {
	f := p.fields[s.LHS.ID]
	inner := local.Rank - 1
	if !f.Allocated() || f.Stride(inner) != 1 || !f.Contains(local) {
		return nil
	}
	kc := &kcompiler{p: p, local: local, inner: inner, L: local.Spans[inner].Len(), ok: true}

	k := &kernel{
		lhs:   f,
		ldata: f.Data(),
		local: local,
		inner: inner,
		L:     kc.L,
		rows:  local.Size() / kc.L,
		mode:  storeModeFor(s, inner),
	}
	k.row = kc.node(s.RHS)
	if !kc.ok {
		return nil
	}
	k.slots = kc.slots
	k.reads = append(kc.reads, fieldRead{f: f})
	return k
}

// storeModeFor picks the cheapest store discipline that preserves
// whole-array semantics for this statement.
func storeModeFor(s *ir.AssignArray, inner int) storeMode {
	mode := storeDirect
	for _, u := range s.Uses {
		if u.Array != s.LHS {
			continue
		}
		crossRow := false
		for d := 0; d < grid.MaxRank; d++ {
			if d != inner && u.Off[d] != 0 {
				crossRow = true
			}
		}
		if crossRow {
			return storeFull
		}
		mode = storeRow
	}
	return mode
}

// run executes the kernel for processor p. The virtual-time charge is the
// caller's job (it depends only on size*Flops, not on how elements are
// evaluated).
func (k *kernel) run(p *proc) {
	c := &p.kctx
	m := p.arena.mark()
	c.scratch = p.arena.alloc(k.slots * k.L)
	switch k.mode {
	case storeDirect:
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			b := k.lhs.IndexOf(i, j, kk)
			dst := k.ldata[b : b+k.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
		})
	case storeRow:
		stage := p.arena.alloc(k.L)
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			out := k.row(c, stage)
			b := k.lhs.IndexOf(i, j, kk)
			copy(k.ldata[b:b+k.L], out)
		})
	case storeFull:
		tmp := p.arena.alloc(k.rows * k.L)
		n := 0
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			dst := tmp[n : n+k.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
			n += k.L
		})
		n = 0
		forRows(k.local, k.inner, func(i, j, kk int) {
			b := k.lhs.IndexOf(i, j, kk)
			copy(k.ldata[b:b+k.L], tmp[n:n+k.L])
			n += k.L
		})
	}
	p.arena.release(m)
}

// run computes the reduction's local partial, folding elements in the
// same row-major order as the interpreter so floating-point results are
// bit-identical.
func (k *reduceKernel) run(p *proc) float64 {
	c := &p.kctx
	m := p.arena.mark()
	c.scratch = p.arena.alloc(k.slots * k.L)
	root := p.arena.alloc(k.L)
	acc := k.op.Identity()
	forRows(k.local, k.inner, func(i, j, kk int) {
		c.i, c.j, c.k = i, j, kk
		out := k.row(c, root)
		switch k.op {
		case ir.ReduceSum:
			for _, v := range out {
				acc = acc + v
			}
		case ir.ReduceProd:
			for _, v := range out {
				acc = acc * v
			}
		case ir.ReduceMax:
			// Combine(a,b) keeps a only when a > b; replicate exactly
			// (including NaN ordering).
			for _, v := range out {
				if !(acc > v) {
					acc = v
				}
			}
		default: // ReduceMin
			for _, v := range out {
				if !(acc < v) {
					acc = v
				}
			}
		}
	})
	p.arena.release(m)
	return acc
}

// kcompiler lowers an expression tree to row evaluators over one region.
// A fused-run compile (compileFused) sets memo, enabling cross-statement
// elimination of repeated subexpressions; per-statement compiles leave it
// nil and every occurrence evaluates independently.
type kcompiler struct {
	p     *proc
	local grid.Region
	inner int
	L     int
	slots int
	ok    bool
	reads []fieldRead // containment checks passed so far (viewOf)

	// Fused-run CSE state (cse.go): cse is the run's index of subtrees
	// worth wrapping, memo the wrappers built so far by key ID. Both nil
	// outside compileFused.
	memo []*memoEntry
	cse  map[ir.Expr]cseNode
}

// slot reserves a fresh scratch row and returns its index.
func (kc *kcompiler) slot() int {
	s := kc.slots
	kc.slots++
	return s
}

// scalarOnly reports whether e contains no array or index references, so
// its value is the same at every point of the region.
func scalarOnly(e ir.Expr) bool {
	switch e := e.(type) {
	case *ir.ArrayRef, *ir.IndexRef, *ir.Reduce:
		return false
	case *ir.Unary:
		return scalarOnly(e.X)
	case *ir.Binary:
		return scalarOnly(e.X) && scalarOnly(e.Y)
	case *ir.Intrinsic:
		for _, a := range e.Args {
			if !scalarOnly(a) {
				return false
			}
		}
	}
	return true
}

// viewOf validates an array reference against the region and returns its
// backing data plus a row-view closure. A reference whose shifted rows
// are not contiguous inside the halo rejects the kernel; the interpreter
// then reproduces the exact out-of-halo panic for genuinely broken
// programs.
func (kc *kcompiler) viewOf(e *ir.ArrayRef) vec {
	f := kc.p.fields[e.Array.ID]
	shifted := kc.local.Shift(e.Off)
	if !f.Allocated() || f.Stride(kc.inner) != 1 || !f.Contains(shifted) {
		kc.ok = false
		return nil
	}
	kc.reads = append(kc.reads, fieldRead{f: f, off: e.Off})
	data := f.Data()
	o0, o1, o2 := e.Off[0], e.Off[1], e.Off[2]
	L := kc.L
	return func(c *kctx, dst []float64) []float64 {
		b := f.IndexOf(c.i+o0, c.j+o1, c.k+o2)
		return data[b : b+L]
	}
}

// operand compiles e as a row evaluator that ignores its dst argument, for
// a binary operator's right side: an array reference is a zero-copy view
// and needs no scratch row; anything else evaluates into a slot of its own.
func (kc *kcompiler) operand(e ir.Expr) vec {
	if ref, isRef := e.(*ir.ArrayRef); isRef {
		return kc.viewOf(ref)
	}
	v := kc.node(e)
	s, L := kc.slot(), kc.L
	return func(c *kctx, _ []float64) []float64 {
		return v(c, c.scratch[s*L:s*L+L])
	}
}

// node is the tree compiler: every operator becomes one loop over a row,
// with subexpression results flowing through views or scratch slots. The
// row primitives below — a scalar operand applied in place (rowScalar,
// scalarRow), two operators in one pass (axpy, chain) — shorten the loop
// chain but never the arithmetic: each element performs exactly the
// interpreter's operations in the interpreter's order, with no algebraic
// rewriting (no reassociation, no x/s to x*(1/s), no 0-x to -x), so
// values are bit-identical, signed zeros included. Only the NaN a
// both-NaN operation returns may differ (see Result.SameBits).
func (kc *kcompiler) node(e ir.Expr) vec {
	if scalarOnly(e) {
		return kc.fill(e)
	}
	switch e := e.(type) {
	case *ir.ArrayRef:
		return kc.viewOf(e)

	case *ir.IndexRef:
		d := e.Dim - 1
		if d == kc.inner {
			return func(c *kctx, dst []float64) []float64 {
				lo := c.coord(d)
				for n := range dst {
					dst[n] = float64(lo + n)
				}
				return dst
			}
		}
		return func(c *kctx, dst []float64) []float64 {
			v := float64(c.coord(d))
			for n := range dst {
				dst[n] = v
			}
			return dst
		}

	case *ir.Unary:
		return kc.memoize(e, func() vec {
			x := kc.node(e.X)
			if e.Op == zpl.MINUS {
				return func(c *kctx, dst []float64) []float64 {
					xs := x(c, dst)[:len(dst)]
					for n := range dst {
						dst[n] = -xs[n]
					}
					return dst
				}
			}
			return func(c *kctx, dst []float64) []float64 {
				xs := x(c, dst)[:len(dst)]
				for n := range dst {
					dst[n] = boolVal(xs[n] == 0)
				}
				return dst
			}
		})

	case *ir.Binary:
		return kc.memoize(e, func() vec { return kc.binary(e) })

	case *ir.Intrinsic:
		return kc.memoize(e, func() vec { return kc.intrinsic(e) })
	}
	// Reductions never appear below statement level (see eval.go).
	kc.ok = false
	return nil
}

// fill compiles a scalar-invariant expression as a per-row broadcast of
// the interpreter closure's value, re-read every row so scalars that
// change between executions are seen.
func (kc *kcompiler) fill(e ir.Expr) vec {
	fn := kc.p.compile(e)
	return func(c *kctx, dst []float64) []float64 {
		v := fn(0, 0, 0)
		for n := range dst {
			dst[n] = v
		}
		return dst
	}
}

// binary compiles a vector-valued binary node. A scalar-invariant operand
// is evaluated once per row through the interpreter's closure and applied
// in place, so it costs neither a broadcast pass nor a scratch row.
func (kc *kcompiler) binary(e *ir.Binary) vec {
	if v := kc.axpy(e); v != nil {
		return v
	}
	op := e.Op
	switch {
	case scalarOnly(e.Y):
		x, s := kc.node(e.X), kc.p.compile(e.Y)
		return func(c *kctx, dst []float64) []float64 {
			rowScalar(op, dst, x(c, dst), s(0, 0, 0))
			return dst
		}
	case scalarOnly(e.X):
		s, y := kc.p.compile(e.X), kc.node(e.Y)
		return func(c *kctx, dst []float64) []float64 {
			scalarRow(op, dst, s(0, 0, 0), y(c, dst))
			return dst
		}
	}
	if v := kc.chain(e); v != nil {
		return v
	}
	x, y := kc.node(e.X), kc.operand(e.Y)
	return func(c *kctx, dst []float64) []float64 {
		binRow(op, dst, x(c, dst), y(c, nil))
		return dst
	}
}

// arith reports whether op is one of the four operators the row loops
// spell out; every other operator goes through evalBinary per element.
func arith(op zpl.Kind) bool {
	return op == zpl.PLUS || op == zpl.MINUS || op == zpl.STAR || op == zpl.SLASH
}

// shared reports whether e is a subtree the fused run's CSE pre-pass
// indexed. A primitive that would absorb it into a wider loop leaves it
// alone, so the subtree keeps its memo row.
func (kc *kcompiler) shared(e ir.Expr) bool {
	_, ok := kc.cse[e]
	return ok
}

// axpy recognizes s*X ± Y, X*s ± Y and Y + s*X (s scalar, X/Y array
// references) and fuses them into one loop. The float64 conversion pins
// the intermediate product to a rounded double, forbidding FMA
// contraction so results stay bit-identical to the interpreter's
// two-step evaluation on every architecture.
func (kc *kcompiler) axpy(b *ir.Binary) vec {
	if b.Op != zpl.PLUS && b.Op != zpl.MINUS {
		return nil
	}
	split := func(e ir.Expr) (ir.Expr, *ir.ArrayRef) {
		m, isMul := e.(*ir.Binary)
		if !isMul || m.Op != zpl.STAR || kc.shared(m) {
			return nil, nil
		}
		if x, isRef := m.Y.(*ir.ArrayRef); isRef && scalarOnly(m.X) {
			return m.X, x
		}
		if x, isRef := m.X.(*ir.ArrayRef); isRef && scalarOnly(m.Y) {
			return m.Y, x
		}
		return nil, nil
	}
	if s, x := split(b.X); x != nil {
		if y, isRef := b.Y.(*ir.ArrayRef); isRef {
			sfn := kc.p.compile(s)
			xv, yv := kc.viewOf(x), kc.viewOf(y)
			sub := b.Op == zpl.MINUS
			return func(c *kctx, dst []float64) []float64 {
				v := sfn(0, 0, 0)
				xs, ys := xv(c, nil)[:len(dst)], yv(c, nil)[:len(dst)]
				if sub {
					for n := range dst {
						dst[n] = float64(v*xs[n]) - ys[n]
					}
				} else {
					for n := range dst {
						dst[n] = float64(v*xs[n]) + ys[n]
					}
				}
				return dst
			}
		}
	}
	if b.Op == zpl.PLUS {
		if s, x := split(b.Y); x != nil {
			if y, isRef := b.X.(*ir.ArrayRef); isRef {
				sfn := kc.p.compile(s)
				xv, yv := kc.viewOf(x), kc.viewOf(y)
				return func(c *kctx, dst []float64) []float64 {
					v := sfn(0, 0, 0)
					xs, ys := xv(c, nil)[:len(dst)], yv(c, nil)[:len(dst)]
					for n := range dst {
						dst[n] = ys[n] + float64(v*xs[n])
					}
					return dst
				}
			}
		}
	}
	return nil
}

// chain compiles (X op1 A) op2 B — A and B array references, both
// operators arithmetic — as one pass over the row after X's, instead of
// two binRow passes over dst. Left-deep sums such as a stencil's
// A@east + A@west + A@north + A@south take half the passes.
func (kc *kcompiler) chain(e *ir.Binary) vec {
	in, isBin := e.X.(*ir.Binary)
	if !isBin || !arith(e.Op) || !arith(in.Op) || scalarOnly(in.X) || kc.shared(in) {
		return nil
	}
	a, aRef := in.Y.(*ir.ArrayRef)
	b, bRef := e.Y.(*ir.ArrayRef)
	if !aRef || !bRef {
		return nil
	}
	x, av, bv := kc.node(in.X), kc.viewOf(a), kc.viewOf(b)
	op1, op2 := in.Op, e.Op
	return func(c *kctx, dst []float64) []float64 {
		chainRow(op1, op2, dst, x(c, dst), av(c, nil), bv(c, nil))
		return dst
	}
}

// Row loops. Each re-slices its operands to len(dst) first, which lets
// the compiler drop the per-element bounds checks. Aliasing between dst
// and an operand is safe: each element is read before it is written.

// binRow applies one operator elementwise: dst[n] = xs[n] op ys[n].
func binRow(op zpl.Kind, dst, xs, ys []float64) {
	xs, ys = xs[:len(dst)], ys[:len(dst)]
	switch op {
	case zpl.PLUS:
		for n := range dst {
			dst[n] = xs[n] + ys[n]
		}
	case zpl.MINUS:
		for n := range dst {
			dst[n] = xs[n] - ys[n]
		}
	case zpl.STAR:
		for n := range dst {
			dst[n] = xs[n] * ys[n]
		}
	case zpl.SLASH:
		for n := range dst {
			dst[n] = xs[n] / ys[n]
		}
	default:
		for n := range dst {
			dst[n] = evalBinary(op, xs[n], ys[n])
		}
	}
}

// rowScalar is binRow with a row-invariant right operand.
func rowScalar(op zpl.Kind, dst, xs []float64, v float64) {
	xs = xs[:len(dst)]
	switch op {
	case zpl.PLUS:
		for n := range dst {
			dst[n] = xs[n] + v
		}
	case zpl.MINUS:
		for n := range dst {
			dst[n] = xs[n] - v
		}
	case zpl.STAR:
		for n := range dst {
			dst[n] = xs[n] * v
		}
	case zpl.SLASH:
		for n := range dst {
			dst[n] = xs[n] / v
		}
	default:
		for n := range dst {
			dst[n] = evalBinary(op, xs[n], v)
		}
	}
}

// scalarRow is binRow with a row-invariant left operand.
func scalarRow(op zpl.Kind, dst []float64, v float64, ys []float64) {
	ys = ys[:len(dst)]
	switch op {
	case zpl.PLUS:
		for n := range dst {
			dst[n] = v + ys[n]
		}
	case zpl.MINUS:
		for n := range dst {
			dst[n] = v - ys[n]
		}
	case zpl.STAR:
		for n := range dst {
			dst[n] = v * ys[n]
		}
	case zpl.SLASH:
		for n := range dst {
			dst[n] = v / ys[n]
		}
	default:
		for n := range dst {
			dst[n] = evalBinary(op, v, ys[n])
		}
	}
}

// chainRow computes dst[n] = (xs[n] op1 as[n]) op2 bs[n] for arithmetic
// op1 and op2. The float64 conversion rounds the inner result exactly as
// the interpreter's separate operation does and forbids FMA contraction.
func chainRow(op1, op2 zpl.Kind, dst, xs, as, bs []float64) {
	xs, as, bs = xs[:len(dst)], as[:len(dst)], bs[:len(dst)]
	switch op1 {
	case zpl.PLUS:
		switch op2 {
		case zpl.PLUS:
			for n := range dst {
				dst[n] = float64(xs[n]+as[n]) + bs[n]
			}
		case zpl.MINUS:
			for n := range dst {
				dst[n] = float64(xs[n]+as[n]) - bs[n]
			}
		case zpl.STAR:
			for n := range dst {
				dst[n] = float64(xs[n]+as[n]) * bs[n]
			}
		default:
			for n := range dst {
				dst[n] = float64(xs[n]+as[n]) / bs[n]
			}
		}
	case zpl.MINUS:
		switch op2 {
		case zpl.PLUS:
			for n := range dst {
				dst[n] = float64(xs[n]-as[n]) + bs[n]
			}
		case zpl.MINUS:
			for n := range dst {
				dst[n] = float64(xs[n]-as[n]) - bs[n]
			}
		case zpl.STAR:
			for n := range dst {
				dst[n] = float64(xs[n]-as[n]) * bs[n]
			}
		default:
			for n := range dst {
				dst[n] = float64(xs[n]-as[n]) / bs[n]
			}
		}
	case zpl.STAR:
		switch op2 {
		case zpl.PLUS:
			for n := range dst {
				dst[n] = float64(xs[n]*as[n]) + bs[n]
			}
		case zpl.MINUS:
			for n := range dst {
				dst[n] = float64(xs[n]*as[n]) - bs[n]
			}
		case zpl.STAR:
			for n := range dst {
				dst[n] = float64(xs[n]*as[n]) * bs[n]
			}
		default:
			for n := range dst {
				dst[n] = float64(xs[n]*as[n]) / bs[n]
			}
		}
	default:
		switch op2 {
		case zpl.PLUS:
			for n := range dst {
				dst[n] = float64(xs[n]/as[n]) + bs[n]
			}
		case zpl.MINUS:
			for n := range dst {
				dst[n] = float64(xs[n]/as[n]) - bs[n]
			}
		case zpl.STAR:
			for n := range dst {
				dst[n] = float64(xs[n]/as[n]) * bs[n]
			}
		default:
			for n := range dst {
				dst[n] = float64(xs[n]/as[n]) / bs[n]
			}
		}
	}
}

func (kc *kcompiler) intrinsic(e *ir.Intrinsic) vec {
	switch e.Fn {
	case ir.FnAbs:
		x := kc.node(e.Args[0])
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)[:len(dst)]
			for n := range dst {
				dst[n] = math.Abs(xs[n])
			}
			return dst
		}
	case ir.FnSqrt:
		x := kc.node(e.Args[0])
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)[:len(dst)]
			for n := range dst {
				dst[n] = math.Sqrt(xs[n])
			}
			return dst
		}
	case ir.FnMax, ir.FnMin:
		x, y := kc.node(e.Args[0]), kc.operand(e.Args[1])
		isMax := e.Fn == ir.FnMax
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)[:len(dst)]
			ys := y(c, nil)[:len(dst)]
			if isMax {
				for n := range dst {
					dst[n] = math.Max(xs[n], ys[n])
				}
			} else {
				for n := range dst {
					dst[n] = math.Min(xs[n], ys[n])
				}
			}
			return dst
		}
	}
	args := make([]vec, len(e.Args))
	args[0] = kc.node(e.Args[0])
	for n := 1; n < len(args); n++ {
		args[n] = kc.operand(e.Args[n])
	}
	fn := e.Fn
	vals := make([]float64, len(args))
	rows := make([][]float64, len(args))
	return func(c *kctx, dst []float64) []float64 {
		rows[0] = args[0](c, dst)
		for n := 1; n < len(args); n++ {
			rows[n] = args[n](c, nil)
		}
		for i := range dst {
			for n := range rows {
				vals[n] = rows[n][i]
			}
			dst[i] = evalIntrinsic(fn, vals)
		}
		return dst
	}
}
