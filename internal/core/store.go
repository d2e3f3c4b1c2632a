package core

// The waiting-token store. The seed engine matched tokens through a
// per-node map[uint64]*entry with one heap-allocated entry per waiting
// dynamic instance; on the simulator's hot loop that means a Go map probe
// plus a pointer chase per token, and GC pressure proportional to the
// token rate. waitStore replaces it with the software analogue of
// Monsoon's explicit token store (DESIGN.md §6): every per-instance field —
// operand values (slots sized by the node's fan-in), presence bitset,
// remaining-operand count, and firing flags — lives inline in
// record-parallel arrays, an arena sized by occupancy whose free records
// chain through need.
//
// One slot function serves every policy. Every tag is space<<32 | i, with
// i an index of its space's free list, and a node's tokens carry tags of
// its own block's space (DESIGN.md §8). So the pool index i names the
// record through a two-level directory: page i>>wsPageBits, entry
// i&wsPageMask — no hash, no probe, no shift. Pages come from the
// machine's pagePool when a node first holds an index in their range and
// go back to it when the last one leaves, so a node's directory follows
// its own occupancy, not its block's tags in use. A store keeps a page
// that empties while it is its only one, so it holds at most one empty
// page: a node whose occupancy comes and goes on one page (every node of
// a block with at most wsPageSize tags) then never trades pages with the
// pool.
//
// Insert and delete never allocate once the store and the page pool have
// grown to the run's peak occupancy.

// Slot flag bits (the entry's allocate-specific state).
const (
	wsPopped uint8 = 1 << iota // tag already popped; waiting for ready
	wsQueued                   // in the ready queue
	wsParked                   // starved of tags; waiting on its budget's pending list
)

// wsMinCap is the arena capacity a store takes on its first insert.
const wsMinCap = 8

// Directory pages: wsPageSize pool indices each.
const (
	wsPageBits = 6
	wsPageSize = 1 << wsPageBits
	wsPageMask = wsPageSize - 1
)

// wsPage is one directory page: slot[j] is the record of the page's j-th
// pool index, or -1; used counts the records the page names. used comes
// first, on the cache line of the lowest indices, which a list hands out
// most.
type wsPage struct {
	used int32
	slot [wsPageSize]int32
}

// pagePool recycles a machine's directory pages across its stores. Every
// page in free names no record (all -1).
type pagePool struct {
	free []*wsPage
	made int // pages allocated, free or in use
}

// get hands out an empty page, allocating one when none is free.
func (p *pagePool) get() *wsPage {
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		return pg
	}
	pg := new(wsPage)
	for j := range pg.slot {
		pg.slot[j] = -1
	}
	p.made++
	return pg
}

// waitStore is one static node's token store.
type waitStore struct {
	// base is the node's space<<32: tag-base is the tag's pool index.
	// dir[i>>wsPageBits] is the page of index i, nil while the page names
	// no record.
	base   uint64
	dir    []*wsPage
	npages int // pages in dir
	pages  *pagePool

	// The records: per-instance state, indexed by slot. free heads the
	// list of free records, linked through need.
	n       int // occupied slots
	free    int32
	tags    []uint64
	need    []int32
	flags   []uint8
	vals    []int64  // capacity * nIn
	present []uint64 // capacity * words

	nIn      int     // operand slots per instance
	words    int     // presence-bitset words per instance
	needInit int32   // operands a fresh instance still waits for
	consts   []int64 // constant operands (len nIn, shared, read-only), nil if none
}

// init sets the store up for a node with nIn operand ports whose tags are
// base|i. consts holds the constant operands, written into every record
// when it is allocated; the caller never writes a const-bound port, so
// they stay put. pages is the machine's page pool. The store holds no
// record until its first insert, so a node no token reaches costs none.
func (ws *waitStore) init(nIn, words int, needInit int32, consts []int64, base uint64, pages *pagePool) {
	ws.nIn = nIn
	ws.words = words
	ws.needInit = needInit
	ws.consts = consts
	ws.base = base
	ws.pages = pages
	ws.free = -1
}

// alloc replaces the records with capacity empty ones, constant operands
// in place.
func (ws *waitStore) alloc(capacity int) {
	ws.tags = make([]uint64, capacity)
	ws.need = make([]int32, capacity)
	ws.flags = make([]uint8, capacity)
	ws.vals = make([]int64, capacity*ws.nIn)
	ws.present = make([]uint64, capacity*ws.words)
	if ws.consts != nil {
		for i := 0; i < capacity; i++ {
			copy(ws.vals[i*ws.nIn:(i+1)*ws.nIn], ws.consts)
		}
	}
}

// link pushes the arena's records from first on onto the free list,
// lowest first out.
func (ws *waitStore) link(first int) {
	for i := len(ws.need) - 1; i >= first; i-- {
		ws.need[i] = ws.free
		ws.free = int32(i)
	}
}

//tyr:hotpath
func (ws *waitStore) len() int { return ws.n }

// lookup returns the slot holding tag, or -1.
//
//tyr:hotpath
func (ws *waitStore) lookup(tag uint64) int32 {
	i := tag - ws.base
	if hi := i >> wsPageBits; hi < uint64(len(ws.dir)) {
		if pg := ws.dir[hi]; pg != nil {
			return pg.slot[i&wsPageMask]
		}
	}
	return -1
}

// insert adds a fresh instance for tag (which must not be present) and
// returns its slot: presence cleared, flags zeroed, constant operands in
// place since the record was allocated, and the other operands undefined
// until they are delivered. limit is the count of indices the node's
// space has handed out; a tag from another space, or past limit, has no
// slot and is refused with -1. Grows first if needed, so the returned slot
// stays valid until the next insert or delete.
//
//tyr:hotpath
func (ws *waitStore) insert(tag uint64, limit uint32) int32 {
	i := tag - ws.base
	if i >= uint64(limit) {
		return -1
	}
	hi := i >> wsPageBits
	if hi >= uint64(len(ws.dir)) {
		ws.growDir(hi)
	}
	pg := ws.dir[hi]
	if pg == nil {
		pg = ws.pages.get()
		ws.dir[hi] = pg
		ws.npages++
	}
	if ws.free < 0 {
		ws.growArena()
	}
	r := ws.free
	ws.free = ws.need[r]
	pg.slot[i&wsPageMask] = r
	pg.used++
	ws.tags[r] = tag
	ws.need[r] = ws.needInit
	ws.flags[r] = 0
	if ws.words == 1 {
		ws.present[r] = 0
	} else {
		clear(ws.present[int(r)*ws.words : (int(r)+1)*ws.words])
	}
	ws.n++
	return r
}

// growDir extends the directory to cover page hi, at least doubling it.
func (ws *waitStore) growDir(hi uint64) {
	dir := make([]*wsPage, max(hi+1, 2*uint64(len(ws.dir))))
	copy(dir, ws.dir)
	ws.dir = dir
}

// growArena doubles the records once every one is occupied, starting at
// wsMinCap.
func (ws *waitStore) growArena() {
	old := *ws
	ws.alloc(max(wsMinCap, 2*len(old.tags)))
	copy(ws.tags, old.tags)
	copy(ws.need, old.need)
	copy(ws.flags, old.flags)
	copy(ws.vals, old.vals)
	copy(ws.present, old.present)
	ws.link(len(old.tags))
}

// delSlot removes the instance of tag at slot: it clears the directory
// entry, returns a page that names no record any more to the pool unless
// it is the store's last, and frees the record, leaving its values where
// they were. Every caller has the tag at hand, which spares a load of the
// record's.
//
//tyr:hotpath
func (ws *waitStore) delSlot(tag uint64, slot int32) {
	ws.n--
	i := tag - ws.base
	hi := i >> wsPageBits
	pg := ws.dir[hi]
	pg.slot[i&wsPageMask] = -1
	if pg.used--; pg.used == 0 && ws.npages > 1 {
		ws.dir[hi] = nil
		ws.npages--
		ws.pages.free = append(ws.pages.free, pg)
	}
	ws.need[slot] = ws.free
	ws.free = slot
}

// valSlice returns the operand values of slot (valid until the next
// insert on this store).
//
//tyr:hotpath
func (ws *waitStore) valSlice(slot int32) []int64 {
	return ws.vals[int(slot)*ws.nIn : (int(slot)+1)*ws.nIn]
}

//tyr:hotpath
func (ws *waitStore) has(slot int32, port int) bool {
	return ws.present[int(slot)*ws.words+port>>6]&(1<<(port&63)) != 0
}

//tyr:hotpath
func (ws *waitStore) set(slot int32, port int) {
	ws.present[int(slot)*ws.words+port>>6] |= 1 << (port & 63)
}

//tyr:hotpath
func (ws *waitStore) popped(slot int32) bool { return ws.flags[slot]&wsPopped != 0 }

//tyr:hotpath
func (ws *waitStore) queued(slot int32) bool { return ws.flags[slot]&wsQueued != 0 }

//tyr:hotpath
func (ws *waitStore) parked(slot int32) bool { return ws.flags[slot]&wsParked != 0 }

//tyr:hotpath
func (ws *waitStore) setFlag(slot int32, f uint8) { ws.flags[slot] |= f }

//tyr:hotpath
func (ws *waitStore) clearFlag(slot int32, f uint8) { ws.flags[slot] &^= f }

// forEach visits every waiting instance in pool-index order. The callback
// must not insert into or delete from the store.
func (ws *waitStore) forEach(fn func(tag uint64, slot int32)) {
	for _, pg := range ws.dir {
		if pg == nil {
			continue
		}
		for _, slot := range pg.slot {
			if slot >= 0 {
				fn(ws.tags[slot], slot)
			}
		}
	}
}
