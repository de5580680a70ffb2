// Package ecpt implements Elastic Cuckoo Page Tables (Skarlatos et al.,
// ASPLOS'20), the state-of-the-art hashed page table the paper compares
// against (§2.2, §6.3).
//
// Each page size has its own d-ary (3-way) cuckoo hash table. A hardware
// walk probes all d ways of the relevant table in parallel — a single
// sequential step, but d memory requests, which is exactly the
// latency-for-bandwidth trade the paper measures in Figures 11/12. Cuckoo
// Walk Tables (CWTs) record which page sizes are mapped in each region, and
// the Cuckoo Walk Cache (CWC) caches CWT entries so most walks probe only
// one table's ways.
package ecpt

import (
	"fmt"
	"math/rand"

	"lvm/internal/addr"
	"lvm/internal/blake2b"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/stats"
)

// Ways is the cuckoo associativity (Table 1: 3 ways).
const Ways = 3

// MaxKicks bounds displacement chains before a resize.
const MaxKicks = 32

// DefaultInitialEntries is the initial per-way table size (Table 1: 16384
// entries split across ways).
const DefaultInitialEntries = 16384

// MaxLoadFactor triggers a resize when exceeded (the "elastic" part).
const MaxLoadFactor = 0.85

// way is one hash table of one cuckoo structure, physically contiguous.
type way struct {
	seed  uint64
	base  addr.PPN
	order int
	slots []pte.Tagged
}

func (w *way) index(v addr.VPN) int {
	return int(blake2b.Sum64(uint64(v)^w.seed) % uint64(len(w.slots)))
}

func (w *way) slotPA(i int) addr.PA {
	return addr.SlotPA(w.base, uint64(i), pte.TaggedBytes)
}

// cuckoo is a d-ary cuckoo hash table for one page size.
type cuckoo struct {
	mem  *phys.Memory
	size addr.PageSize
	ways [Ways]*way
	used int
	rng  *rand.Rand

	rehashes stats.Counter
}

func newCuckoo(mem *phys.Memory, size addr.PageSize, perWay int) (*cuckoo, error) {
	c := &cuckoo{mem: mem, size: size, rng: rand.New(rand.NewSource(int64(size) + 12345))}
	for i := range c.ways {
		w, err := allocWay(mem, perWay, uint64(i)*0x9e3779b97f4a7c15+uint64(size))
		if err != nil {
			return nil, err
		}
		c.ways[i] = w
	}
	return c, nil
}

func allocWay(mem *phys.Memory, slots int, seed uint64) (*way, error) {
	order := phys.OrderForBytes(uint64(slots) * pte.TaggedBytes)
	base, err := mem.Alloc(order)
	if err != nil {
		return nil, fmt.Errorf("ecpt: allocating way: %w", err)
	}
	n := int(phys.BlockBytes(order) / pte.TaggedBytes)
	return &way{seed: seed, base: base, order: order, slots: make([]pte.Tagged, n)}, nil
}

func (c *cuckoo) capacity() int {
	n := 0
	for _, w := range c.ways {
		n += len(w.slots)
	}
	return n
}

func (c *cuckoo) loadFactor() float64 {
	return float64(c.used) / float64(c.capacity())
}

// insert places a tagged entry, displacing existing entries cuckoo-style;
// resizes and rehashes when a chain exceeds MaxKicks or the load factor is
// too high.
func (c *cuckoo) insert(tag addr.VPN, e pte.Entry) error {
	if c.loadFactor() > MaxLoadFactor {
		if err := c.resize(); err != nil {
			return err
		}
	}
	item := pte.Tagged{Tag: tag, Entry: e}
	// Overwrite if present. The way indices hashed here also serve the
	// first placement round.
	var at [Ways]int
	for k, w := range c.ways {
		at[k] = w.index(tag)
		if w.slots[at[k]].Valid() && w.slots[at[k]].Tag == tag {
			w.slots[at[k]] = item
			return nil
		}
	}
	known := &at
	for attempt := 0; attempt < 4; attempt++ {
		homeless, ok := c.tryPlace(item, known)
		if ok {
			c.used++
			return nil
		}
		// The displacement chain ran out of kicks: some victim is now
		// homeless (the original item itself landed in the table). Resize,
		// which rehashes everything placed, then re-insert the victim.
		if err := c.resize(); err != nil {
			return err
		}
		item, known = homeless, nil
	}
	return fmt.Errorf("ecpt: insert failed after resize")
}

// tryPlace attempts cuckoo placement. known, when non-nil, holds item's way
// indices in the current ways, already hashed by the caller; otherwise each
// way is hashed as the round reaches it. On failure it returns the item left
// homeless at the end of the displacement chain (which is generally NOT the
// item passed in — earlier links of the chain have been placed).
func (c *cuckoo) tryPlace(item pte.Tagged, known *[Ways]int) (pte.Tagged, bool) {
	var at [Ways]int
	for kick := 0; kick < MaxKicks; kick++ {
		for k, w := range c.ways {
			if known != nil {
				at[k] = known[k]
			} else {
				at[k] = w.index(item.Tag)
			}
			if !w.slots[at[k]].Valid() {
				w.slots[at[k]] = item
				return pte.Tagged{}, true
			}
		}
		known = nil
		// All ways occupied: evict from a random way at the index this
		// round just computed, and retry with the displaced item.
		k := c.rng.Intn(Ways)
		item, c.ways[k].slots[at[k]] = c.ways[k].slots[at[k]], item
	}
	return item, false
}

// resize doubles every way and rehashes — the elastic growth operation.
func (c *cuckoo) resize() error {
	c.rehashes.Inc()
	old := c.ways
	for i := range c.ways {
		w, err := allocWay(c.mem, len(old[i].slots)*2, old[i].seed)
		if err != nil {
			return err
		}
		c.ways[i] = w
	}
	c.used = 0
	for _, ow := range old {
		for _, s := range ow.slots {
			if s.Valid() {
				if _, ok := c.tryPlace(s, nil); !ok {
					return fmt.Errorf("ecpt: rehash failed")
				}
				c.used++
			}
		}
		c.mem.Free(ow.base, ow.order)
	}
	return nil
}

// lookup returns the entry and which way holds it.
func (c *cuckoo) lookup(v addr.VPN) (pte.Entry, bool) {
	tag := addr.AlignDown(v, c.size)
	for _, w := range c.ways {
		i := w.index(tag)
		if w.slots[i].Matches(v) {
			return w.slots[i].Entry, true
		}
	}
	return 0, false
}

// remove clears a translation.
func (c *cuckoo) remove(v addr.VPN) bool {
	tag := addr.AlignDown(v, c.size)
	for _, w := range c.ways {
		i := w.index(tag)
		if w.slots[i].Valid() && w.slots[i].Tag == tag {
			w.slots[i] = pte.Tagged{}
			c.used--
			return true
		}
	}
	return false
}

// Table is one process's ECPT: one cuckoo structure per page size plus the
// CWTs describing which sizes are present per region.
type Table struct {
	mem    *phys.Memory
	tables map[addr.PageSize]*cuckoo
	// cwt maps a 2MB-region number (VPN>>9) to the set of page sizes
	// present in that region; it is itself stored in memory at cwtBase.
	cwt     map[uint64]uint8
	cwtBase addr.PPN
	cwtOrdr int
}

// New creates an empty ECPT.
func New(mem *phys.Memory, initialPerWay int) (*Table, error) {
	if initialPerWay <= 0 {
		initialPerWay = DefaultInitialEntries / Ways
	}
	t := &Table{mem: mem, tables: make(map[addr.PageSize]*cuckoo), cwt: make(map[uint64]uint8)}
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M} {
		c, err := newCuckoo(mem, s, initialPerWay)
		if err != nil {
			return nil, err
		}
		t.tables[s] = c
	}
	base, err := mem.Alloc(2) // 16 KB of CWT backing to give walks real PAs
	if err != nil {
		return nil, err
	}
	t.cwtBase = base
	t.cwtOrdr = 2
	return t, nil
}

func (t *Table) region(v addr.VPN) uint64 { return uint64(v) >> 9 }

// cwtPA returns the memory location of a region's CWT entry (one byte per
// region, packed).
func (t *Table) cwtPA(region uint64) addr.PA {
	span := phys.BlockBytes(t.cwtOrdr)
	return addr.PAOf(t.cwtBase) + addr.PA(region%span)
}

// Map installs a translation.
func (t *Table) Map(v addr.VPN, e pte.Entry) error {
	c := t.tables[e.Size()]
	if c == nil {
		return fmt.Errorf("ecpt: unsupported page size %s", e.Size())
	}
	tag := addr.AlignDown(v, e.Size())
	if err := c.insert(tag, e); err != nil {
		return err
	}
	// Both supported sizes fit in one 2MB region, so a mapping sets one
	// region's CWT bit.
	t.cwt[t.region(tag)] |= 1 << uint(e.Size())
	return nil
}

// Unmap removes a translation from whichever size table holds it.
func (t *Table) Unmap(v addr.VPN) bool {
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M} {
		if t.tables[s].remove(addr.AlignDown(v, s)) {
			return true
		}
	}
	return false
}

// Lookup is the software walk.
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) {
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M} {
		if e, ok := t.tables[s].lookup(v); ok {
			return e, true
		}
	}
	return 0, false
}

// TableBytes returns the physical footprint of all ways of all sizes — the
// over-provisioned hash-table space of §7.3's memory comparison.
func (t *Table) TableBytes() uint64 {
	var b uint64
	for _, c := range t.tables {
		for _, w := range c.ways {
			b += phys.BlockBytes(w.order)
		}
	}
	return b
}

// Rehashes returns the number of elastic resizes performed.
func (t *Table) Rehashes() uint64 {
	var n uint64
	for _, c := range t.tables {
		n += c.rehashes.Value()
	}
	return n
}

// release frees the ways of one cuckoo table.
func (c *cuckoo) release() {
	for _, w := range c.ways {
		c.mem.Free(w.base, w.order)
	}
	c.used = 0
}

// Release returns all cuckoo ways and the CWT block to the allocator; the
// table is unusable afterwards (process exit).
func (t *Table) Release() {
	for _, c := range t.tables {
		c.release()
	}
	t.tables = map[addr.PageSize]*cuckoo{}
	t.mem.Free(t.cwtBase, t.cwtOrdr)
	t.cwt = map[uint64]uint8{}
}

// Walker is the hardware ECPT walker with a CWC.
type Walker struct {
	tables map[uint16]*Table
	// lastASID/lastTable memoize the most recent tables lookup so batched
	// walks skip the map per access; Attach/Detach invalidate it.
	lastASID  uint16
	lastTable *Table
	// cwcPMD caches CWT entries at 2MB-region granularity; cwcPUD at
	// 1GB-region granularity (Table 1: 16 and 2 entries).
	cwcPMD, cwcPUD *mmu.PWC
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf

	// plans queue the walk plans recorded by Lookup for WalkBatch.
	plans mmu.PlanQueue[plan]
}

// plan is one walk's table-side record: the CWT entry location and the
// way-probe PAs of every indicated page-size table, each way hashed once to
// serve both the probe trace and the tag match. Table.plan fills it; replay
// adds the live CWC probes. Lookup queues plans for WalkBatch, and the
// scalar Walk plans and replays in one step.
type plan struct {
	noTable bool
	region  uint64
	cwtPA   addr.PA
	probes  [2 * Ways]addr.PA
	nprobe  int8
	entry   pte.Entry
	found   bool
}

// NewWalker creates the walker with Table-1 CWC sizing.
func NewWalker() *Walker {
	return &Walker{
		tables: make(map[uint16]*Table),
		cwcPMD: mmu.NewPWC("cwc-pmd", 16),
		cwcPUD: mmu.NewPWC("cwc-pud", 2),
	}
}

// Attach registers a process's ECPT under an ASID.
func (w *Walker) Attach(asid uint16, t *Table) {
	w.tables[asid] = t
	w.lastTable = nil
}

// Detach removes a process's table and flushes its CWC entries (process
// exit).
func (w *Walker) Detach(asid uint16) {
	delete(w.tables, asid)
	w.lastTable = nil
	w.cwcPMD.FlushASID(asid)
	w.cwcPUD.FlushASID(asid)
}

// table resolves an ASID's table through the one-entry memo.
func (w *Walker) table(asid uint16) (*Table, bool) {
	if w.lastTable != nil && w.lastASID == asid {
		return w.lastTable, true
	}
	t, ok := w.tables[asid]
	if ok {
		w.lastASID, w.lastTable = asid, t
	}
	return t, ok
}

// Name implements mmu.Walker.
func (w *Walker) Name() string { return "ecpt" }

// CWCs returns the walk-cache levels for stats.
func (w *Walker) CWCs() (pmd, pud *mmu.PWC) { return w.cwcPMD, w.cwcPUD }

// Snapshot implements metrics.Source: the CWC level counters
// (cwc.pmd.hits, cwc.pud.misses, ...).
func (w *Walker) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("cwc.pmd", w.cwcPMD.Snapshot())
	s.Merge("cwc.pud", w.cwcPUD.Snapshot())
	return s
}

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker. With CWC section information the walker
// probes the d ways of the right page-size table in parallel; on a CWC
// miss it first fetches the CWT entry, then probes the tables indicated —
// without size information it must probe both sizes (2d requests).
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.buf.Reset()
	return w.walkInto(&w.buf, t, asid, v)
}

// walkInto is Walk's engine over a caller-supplied (already reset) buffer,
// so the batch path's mismatch fallback can walk into a slot buffer.
func (w *Walker) walkInto(b *mmu.WalkBuf, t *Table, asid uint16, v addr.VPN) mmu.Outcome {
	var p plan
	t.plan(&p, v)
	return w.replay(b, asid, &p)
}

// plan resolves v functionally and records its walk plan. An empty CWT
// mask truly means nothing is mapped in the region (the CWT is updated on
// Map), so no size is probed. Sizes are probed 4K before 2M and ways in
// order, all as one parallel group; the first matching (size, way) wins.
func (t *Table) plan(p *plan, v addr.VPN) {
	p.region = t.region(v)
	p.cwtPA = t.cwtPA(p.region)
	mask := t.cwt[p.region]
	for _, s := range [...]addr.PageSize{addr.Page4K, addr.Page2M} {
		if mask&(1<<uint(s)) == 0 {
			continue
		}
		c := t.tables[s]
		tag := addr.AlignDown(v, c.size)
		for _, wy := range c.ways {
			i := wy.index(tag)
			p.probes[p.nprobe] = wy.slotPA(i)
			p.nprobe++
			if !p.found && wy.slots[i].Matches(v) {
				p.entry, p.found = wy.slots[i].Entry, true
			}
		}
	}
}

// Lookup implements mmu.Lookuper: resolve the translation functionally and
// queue its walk plan for WalkBatch.
func (w *Walker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	var p plan
	if t, ok := w.table(asid); ok {
		t.plan(&p, v)
	} else {
		p.noTable = true
	}
	w.plans.Push(asid, v, p)
	return p.entry, p.found
}

// replay performs the timing half of a planned walk: live CWC probes and
// fills (a CWC miss fetches the CWT entry before the probes), then the
// plan's probe group; an empty group is dropped.
func (w *Walker) replay(b *mmu.WalkBuf, asid uint16, p *plan) mmu.Outcome {
	if p.noTable {
		return mmu.Outcome{}
	}
	if !w.cwcPMD.Lookup(asid, p.region) && !w.cwcPUD.Lookup(asid, p.region>>9) {
		b.AddGroup(p.cwtPA)
		w.cwcPMD.Insert(asid, p.region)
		w.cwcPUD.Insert(asid, p.region>>9)
	}
	b.Group()
	for i := 0; i < int(p.nprobe); i++ {
		b.Add(p.probes[i])
	}
	return b.Outcome(p.entry, p.found, mmu.StepCycles)
}

// WalkBatch implements mmu.BatchWalker: replay the plans recorded by the
// preceding Lookup sequence (falling back to fresh walks on mismatch) and
// drain the plan queue.
func (w *Walker) WalkBatch(asid uint16, vpns []addr.VPN, bufs *mmu.WalkBatchBuf) {
	bufs.Reset(len(vpns))
	for i, v := range vpns {
		b := bufs.Buf(i)
		if p := w.plans.Next(asid, v); p != nil {
			bufs.SetOutcome(i, w.replay(b, asid, p))
		} else if t, ok := w.table(asid); ok {
			bufs.SetOutcome(i, w.walkInto(b, t, asid, v))
		} else {
			bufs.SetOutcome(i, mmu.Outcome{})
		}
	}
	w.plans.Drain()
}

var _ mmu.BatchWalker = (*Walker)(nil)
