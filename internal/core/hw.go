package core

import (
	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/pte"
)

// HWWalker is LVM's hardware page table walker (paper §4.6.2, Fig. 7): on
// an L2 TLB miss it traverses the learned index, consulting the LVM Walk
// Cache for each node and fetching missing nodes from memory, then fetches
// the predicted PTE cluster. Each node step costs one fixed-point
// multiply-add (2 cycles, §7.4).
type HWWalker struct {
	lwc     *mmu.LWC
	indexes map[uint16]attachment
	// flushes counts LWC invalidations driven by OS retrains (§5.2).
	flushes uint64
	// lastRetrains tracks per-ASID retrain counts already reconciled.
	lastRetrains map[uint16]uint64
	lastRebuilds map[uint16]uint64
	lastLazy     map[uint16]uint64
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf

	// lastASID/lastAt memoize the most recent indexes lookup so batched
	// walks skip the map per access; Attach/Detach invalidate it.
	lastASID uint16
	lastAt   attachment
	hasLast  bool

	// plans queue the walk plans recorded by Lookup for WalkBatch.
	// Index.Walk returns slices viewing the index's reusable scratch, so
	// Lookup copies each result's nodes and cluster PAs into the
	// walker-owned flat arrays below, which drainPlans resets with the
	// queue.
	plans      mmu.PlanQueue[walkPlan]
	planNodes  []NodeRef
	planPTEPAs []addr.PA
	// reconciled marks that OS retrain/rebuild events were already applied
	// for the current batch; within one batch nothing mutates the index
	// (Index.Walk only bumps SearchOverflows, which reconcile ignores), so
	// one reconcile per batch equals the scalar per-walk reconcile.
	reconciled bool
}

// walkPlan is one functional traversal's record: offsets into the shared
// planNodes/planPTEPAs scratch plus the resolved entry.
type walkPlan struct {
	noIndex          bool
	nodeOff, nodeEnd int32
	pteOff, pteEnd   int32
	entry            pte.Entry
	found            bool
}

type attachment struct {
	ix *Index
	// norm applies the ASLR base registers (§5.2): raw VPN → the canonical
	// VPN the index was trained on. Nil means identity.
	norm func(addr.VPN) addr.VPN
}

// NewHWWalker creates a walker with the Table-1 LWC size (16 entries).
func NewHWWalker(lwcEntries int) *HWWalker {
	return &HWWalker{
		lwc:          mmu.NewLWC(lwcEntries),
		indexes:      make(map[uint16]attachment),
		lastRetrains: make(map[uint16]uint64),
		lastRebuilds: make(map[uint16]uint64),
		lastLazy:     make(map[uint16]uint64),
	}
}

// Attach registers a process's learned index under an ASID.
func (w *HWWalker) Attach(asid uint16, ix *Index) {
	w.indexes[asid] = attachment{ix: ix}
	w.hasLast = false
}

// AttachNormalized registers an index together with the ASLR normalization
// the OS exposed through base registers (§5.2).
func (w *HWWalker) AttachNormalized(asid uint16, ix *Index, norm func(addr.VPN) addr.VPN) {
	w.indexes[asid] = attachment{ix: ix, norm: norm}
	w.hasLast = false
}

// Detach removes a process's index and flushes its LWC entries (process
// exit; §4.6.2's ASID tagging makes this the only flush needed).
func (w *HWWalker) Detach(asid uint16) {
	delete(w.indexes, asid)
	delete(w.lastRetrains, asid)
	delete(w.lastRebuilds, asid)
	delete(w.lastLazy, asid)
	w.hasLast = false
	w.lwc.FlushASID(asid)
	w.flushes++
}

// attachmentFor resolves an ASID's attachment through the one-entry memo.
func (w *HWWalker) attachmentFor(asid uint16) (attachment, bool) {
	if w.hasLast && w.lastASID == asid {
		return w.lastAt, true
	}
	at, ok := w.indexes[asid]
	if ok {
		w.lastASID, w.lastAt, w.hasLast = asid, at, true
	}
	return at, ok
}

// Name implements mmu.Walker.
func (w *HWWalker) Name() string { return "lvm" }

// LWC exposes the walk cache for stats.
func (w *HWWalker) LWC() *mmu.LWC { return w.lwc }

// Flushes returns the number of LWC flush events the OS has issued.
func (w *HWWalker) Flushes() uint64 { return w.flushes }

// Snapshot implements metrics.Source: the LWC hit/miss counters plus the
// OS-driven flush count (lwc.hits, lwc.misses, lwc.flushes).
func (w *HWWalker) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("lwc", w.lwc.Snapshot())
	s.Counter("lwc.flushes", w.flushes)
	return s
}

var _ metrics.Source = (*HWWalker)(nil)

// Walk implements mmu.Walker.
func (w *HWWalker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	w.buf.Reset()
	return w.walkInto(&w.buf, asid, v)
}

// walkInto is Walk's engine over a caller-supplied (already reset) buffer,
// so the batch path's mismatch fallback can walk into a slot buffer.
func (w *HWWalker) walkInto(b *mmu.WalkBuf, asid uint16, v addr.VPN) mmu.Outcome {
	at, ok := w.attachmentFor(asid)
	if !ok {
		return mmu.Outcome{}
	}
	ix := at.ix
	w.reconcile(asid, ix)
	if at.norm != nil {
		v = at.norm(v)
	}
	r := ix.Walk(v)
	wcc := 0
	for _, n := range r.Nodes {
		wcc += mmu.StepCycles
		if !w.lwc.Lookup(asid, n.Level, n.Offset) {
			// Fetch the 64-byte line holding the node from memory.
			b.AddGroup(n.PA)
			w.lwc.Insert(asid, n.Level, n.Offset)
		}
	}
	for _, pa := range r.PTEPAs {
		b.AddGroup(pa)
	}
	return b.Outcome(r.Entry, r.Found, wcc)
}

// Lookup implements mmu.Lookuper: one Index.Walk resolves the translation
// and its plan — the node chain and cluster PAs — which Lookup copies into
// walker-owned scratch for the following WalkBatch to replay (Index.Walk's
// result views index scratch valid only until the next Walk, and it
// mutates the search-overflow counter, so it must run exactly once per
// miss). OS retrain/rebuild reconciliation runs once per batch; see the
// reconciled field for why that equals the scalar per-walk reconcile.
func (w *HWWalker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	if w.plans.ASID() != asid {
		w.drainPlans()
	}
	var p walkPlan
	at, ok := w.attachmentFor(asid)
	if !ok {
		p.noIndex = true
		w.plans.Push(asid, v, p)
		return 0, false
	}
	if !w.reconciled {
		w.reconcile(asid, at.ix)
		w.reconciled = true
	}
	nv := v
	if at.norm != nil {
		nv = at.norm(v)
	}
	r := at.ix.Walk(nv)
	p.nodeOff = int32(len(w.planNodes))
	//lint:allow hotalloc plan scratch grows to the batch's trace volume once, then recycles
	w.planNodes = append(w.planNodes, r.Nodes...)
	p.nodeEnd = int32(len(w.planNodes))
	p.pteOff = int32(len(w.planPTEPAs))
	//lint:allow hotalloc plan scratch grows to the batch's trace volume once, then recycles
	w.planPTEPAs = append(w.planPTEPAs, r.PTEPAs...)
	p.pteEnd = int32(len(w.planPTEPAs))
	p.entry, p.found = r.Entry, r.Found
	w.plans.Push(asid, v, p)
	return p.entry, p.found
}

// WalkBatch implements mmu.BatchWalker: replay the plans recorded by the
// preceding Lookup sequence — the LWC lookups and fills run live, in
// arrival order, against walker-owned copies of each walk's node chain —
// falling back to fresh walks on mismatch, then drain the plan queue.
func (w *HWWalker) WalkBatch(asid uint16, vpns []addr.VPN, bufs *mmu.WalkBatchBuf) {
	bufs.Reset(len(vpns))
	for i, v := range vpns {
		b := bufs.Buf(i)
		if p := w.plans.Next(asid, v); p != nil {
			if p.noIndex {
				bufs.SetOutcome(i, mmu.Outcome{})
				continue
			}
			wcc := 0
			for _, n := range w.planNodes[p.nodeOff:p.nodeEnd] {
				wcc += mmu.StepCycles
				if !w.lwc.Lookup(asid, n.Level, n.Offset) {
					b.AddGroup(n.PA)
					w.lwc.Insert(asid, n.Level, n.Offset)
				}
			}
			for _, pa := range w.planPTEPAs[p.pteOff:p.pteEnd] {
				b.AddGroup(pa)
			}
			bufs.SetOutcome(i, b.Outcome(p.entry, p.found, wcc))
			continue
		}
		bufs.SetOutcome(i, w.walkInto(b, asid, v))
	}
	w.drainPlans()
}

// drainPlans clears the plan queue and scratch for a new batch.
func (w *HWWalker) drainPlans() {
	w.plans.Drain()
	w.planNodes = w.planNodes[:0]
	w.planPTEPAs = w.planPTEPAs[:0]
	w.reconciled = false
}

// reconcile applies OS-side retrain/rebuild events to the LWC: a retrain
// flushes the affected node, a rebuild flushes the address space (§5.2).
// The walker polls the index's counters, which models the OS issuing the
// flush at the moment it retrains.
func (w *HWWalker) reconcile(asid uint16, ix *Index) {
	s := ix.Stats()
	if s.Rebuilds > w.lastRebuilds[asid] {
		w.lwc.FlushASID(asid)
		w.flushes += s.Rebuilds - w.lastRebuilds[asid]
		w.lastRebuilds[asid] = s.Rebuilds
		// A rebuild subsumes outstanding retrain flushes.
		w.lastRetrains[asid] = s.Retrains
		return
	}
	if s.Retrains > w.lastRetrains[asid] {
		// The OS flushes only the retrained node; we conservatively flush
		// the ASID's leaf entries by dropping the whole ASID — with a
		// 16-entry LWC the cost is indistinguishable, and retrains are
		// rare (≤3 per run, §7.3).
		w.lwc.FlushASID(asid)
		w.flushes += s.Retrains - w.lastRetrains[asid]
		w.lastRetrains[asid] = s.Retrains
	}
	if s.LazyTrains > w.lastLazy[asid] {
		// A previously empty leaf got its first model: its cached
		// empty-model LWC entry is stale.
		w.lwc.FlushASID(asid)
		w.flushes += s.LazyTrains - w.lastLazy[asid]
		w.lastLazy[asid] = s.LazyTrains
	}
}

var _ mmu.BatchWalker = (*HWWalker)(nil)
