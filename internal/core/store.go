package core

import "math/bits"

// The waiting-token store. The seed engine matched tokens through a
// per-node map[uint64]*entry with one heap-allocated entry per waiting
// dynamic instance; on the simulator's hot loop that means a Go map probe
// plus a pointer chase per token, and GC pressure proportional to the
// token rate. waitStore replaces it with the software analogue of
// Monsoon's explicit token store (DESIGN.md §6): every per-instance field —
// operand values (slots sized by the node's fan-in), presence bitset,
// remaining-operand count, and firing flags — lives inline in
// record-parallel arrays, and only the slot function that names a tag's
// record depends on the tag space:
//
//   - Pooled (tyr, local-nogate): every tag the node sees is its block
//     pool's base plus an index below the pool size, so a directory
//     indexed by that index names the record directly — no hash, no
//     probe, no shift. The directory grows to the highest index
//     the node has seen (never past the pool), so every node of a block
//     pays 4 B per index the block has handed out, whatever its own
//     occupancy; the records form an arena sized by occupancy whose free
//     records chain through need.
//   - Hashed (unlimited, k-bound, global-bounded): the records are an
//     open-addressed, power-of-two hash table keyed by tag; the table is
//     the arena, and open addressing is its freelist. Unlimited and
//     k-bound tags are unbounded, and global-bounded's one pool is
//     shared by every block, so a directory would cover it on every node.
//
// Insert and delete never allocate once the store has grown to the run's
// peak occupancy.

// Slot flag bits (the entry's allocate-specific state).
const (
	wsPopped uint8 = 1 << iota // tag already popped; waiting for ready
	wsQueued                   // in the ready queue
	wsParked                   // starved of tags; waiting in a pending list
)

// wsMinCap is the initial table and arena capacity (power of two).
const wsMinCap = 8

// hashTag mixes a tag into a table index base. Tags are highly structured
// (space<<32|idx pool encodings, dense counters), so multiply by a 64-bit
// odd constant (Fibonacci hashing) and keep the top bits.
//
//tyr:hotpath
func hashTag(tag uint64) uint32 {
	return uint32((tag * 0x9E3779B97F4A7C15) >> 32)
}

// waitStore is one static node's token store.
type waitStore struct {
	// Pooled slot function (pool > 0): dir[tag-base] is the tag's record,
	// or -1; free heads the list of free records, linked through need.
	pool uint64
	base uint64
	dir  []int32
	free int32

	// Hashed slot function (pool == 0).
	mask   uint32 // capacity - 1
	used   []bool
	growAt int // occupancy threshold that triggers doubling

	// The records: per-instance state, indexed by slot.
	n       int // occupied slots
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

// init sets the store up for a node with nIn operand ports. consts holds
// the constant operands, written into every record when it is allocated;
// the caller never writes a const-bound port, so they stay put. pool is
// the size of the tag pool the node's tags come from when they are dense
// (base+i with i < pool), 0 when they are unbounded.
func (ws *waitStore) init(nIn, words int, needInit int32, consts []int64, base, pool uint64) {
	ws.nIn = nIn
	ws.words = words
	ws.needInit = needInit
	ws.consts = consts
	ws.base = base
	ws.pool = pool
	ws.free = -1
	ws.alloc(wsMinCap)
	if pool > 0 {
		ws.link(0)
	}
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
	if ws.pool == 0 {
		ws.mask = uint32(capacity - 1)
		ws.growAt = capacity * 13 / 16
		ws.used = make([]bool, capacity)
	}
}

// link pushes the pooled arena's records from first on onto the free
// list, lowest first out.
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
	if ws.pool > 0 {
		if idx := tag - ws.base; idx < uint64(len(ws.dir)) {
			return ws.dir[idx]
		}
		return -1
	}
	i := hashTag(tag) & ws.mask
	for ws.used[i] {
		if ws.tags[i] == tag {
			return int32(i)
		}
		i = (i + 1) & ws.mask
	}
	return -1
}

// insert adds a fresh instance for tag (which must not be present) and
// returns its slot: presence cleared, flags zeroed, constant operands in
// place since the record was allocated, and the other operands undefined
// until they are delivered. A pooled store refuses a tag outside its pool
// with -1. Grows first if needed, so the returned slot stays valid until
// the next insert or delete.
//
//tyr:hotpath
func (ws *waitStore) insert(tag uint64) int32 {
	var i int32
	if ws.pool > 0 {
		idx := tag - ws.base
		if idx >= ws.pool {
			return -1
		}
		if idx >= uint64(len(ws.dir)) {
			ws.growDir(idx)
		}
		if ws.free < 0 {
			ws.growArena()
		}
		i = ws.free
		ws.free = ws.need[i]
		ws.dir[idx] = i
	} else {
		if ws.n >= ws.growAt {
			ws.grow()
		}
		h := hashTag(tag) & ws.mask
		for ws.used[h] {
			h = (h + 1) & ws.mask
		}
		ws.used[h] = true
		i = int32(h)
	}
	ws.tags[i] = tag
	ws.need[i] = ws.needInit
	ws.flags[i] = 0
	if ws.words == 1 {
		ws.present[i] = 0
	} else {
		clear(ws.present[int(i)*ws.words : (int(i)+1)*ws.words])
	}
	ws.n++
	return i
}

// growDir extends a pooled store's directory to cover pool index idx:
// the next power of two above idx, capped at the pool.
func (ws *waitStore) growDir(idx uint64) {
	dir := make([]int32, min(uint64(1)<<bits.Len64(idx), ws.pool))
	n := copy(dir, ws.dir)
	for i := n; i < len(dir); i++ {
		dir[i] = -1
	}
	ws.dir = dir
}

// growArena doubles a pooled store's records once every one is occupied.
func (ws *waitStore) growArena() {
	old := *ws
	ws.alloc(2 * len(old.tags))
	copy(ws.tags, old.tags)
	copy(ws.need, old.need)
	copy(ws.flags, old.flags)
	copy(ws.vals, old.vals)
	copy(ws.present, old.present)
	ws.link(len(old.tags))
}

func (ws *waitStore) grow() {
	oldUsed, oldTags, oldNeed, oldFlags := ws.used, ws.tags, ws.need, ws.flags
	oldVals, oldPresent := ws.vals, ws.present
	ws.alloc(2 * (int(ws.mask) + 1))
	for j := range oldUsed {
		if !oldUsed[j] {
			continue
		}
		i := hashTag(oldTags[j]) & ws.mask
		for ws.used[i] {
			i = (i + 1) & ws.mask
		}
		ws.used[i] = true
		ws.tags[i] = oldTags[j]
		ws.need[i] = oldNeed[j]
		ws.flags[i] = oldFlags[j]
		copy(ws.vals[int(i)*ws.nIn:(int(i)+1)*ws.nIn], oldVals[j*ws.nIn:(j+1)*ws.nIn])
		copy(ws.present[int(i)*ws.words:(int(i)+1)*ws.words], oldPresent[j*ws.words:(j+1)*ws.words])
	}
}

// delSlot removes the instance at slot. A pooled store clears its
// directory entry and frees the record; a hashed one uses backward-shift
// deletion (no tombstones: subsequent entries whose probe chains pass
// through the hole are shifted back, keeping lookups tombstone-free
// forever).
//
//tyr:hotpath
func (ws *waitStore) delSlot(slot int32) {
	ws.n--
	if ws.pool > 0 {
		ws.dir[ws.tags[slot]-ws.base] = -1
		ws.need[slot] = ws.free
		ws.free = slot
		return
	}
	i := uint32(slot)
	ws.used[i] = false
	j := i
	for {
		j = (j + 1) & ws.mask
		if !ws.used[j] {
			return
		}
		h := hashTag(ws.tags[j]) & ws.mask
		// The entry at j may fill the hole at i only if its home h does
		// not lie cyclically inside (i, j] — otherwise moving it would
		// break its own probe chain.
		if (j-h)&ws.mask >= (j-i)&ws.mask {
			ws.used[i] = true
			ws.tags[i] = ws.tags[j]
			ws.need[i] = ws.need[j]
			ws.flags[i] = ws.flags[j]
			copy(ws.vals[int(i)*ws.nIn:(int(i)+1)*ws.nIn], ws.vals[int(j)*ws.nIn:(int(j)+1)*ws.nIn])
			copy(ws.present[int(i)*ws.words:(int(i)+1)*ws.words], ws.present[int(j)*ws.words:(int(j)+1)*ws.words])
			ws.used[j] = false
			i = j
		}
	}
}

// valSlice returns the operand values of slot (valid until the next
// insert or delete on this store).
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

// forEach visits every waiting instance in a deterministic order: pool
// index order for a pooled store, slot order for a hashed one. The
// callback must not insert into or delete from the store.
func (ws *waitStore) forEach(fn func(tag uint64, slot int32)) {
	if ws.pool > 0 {
		for _, slot := range ws.dir {
			if slot >= 0 {
				fn(ws.tags[slot], slot)
			}
		}
		return
	}
	for i := range ws.used {
		if ws.used[i] {
			fn(ws.tags[i], int32(i))
		}
	}
}

// tagMap is a small open-addressed uint64 -> int64 map with backward-shift
// deletion, used for the keyed-block (k-bounding) invocation index and the
// per-tag live-token accounting — places the seed used Go maps whose
// buckets are never reclaimed even though keys retire constantly.
type tagMap struct {
	mask   uint32
	n      int
	growAt int
	used   []bool
	keys   []uint64
	vals   []int64
}

func newTagMap() *tagMap {
	m := &tagMap{}
	m.alloc(wsMinCap)
	return m
}

func (m *tagMap) alloc(capacity int) {
	m.mask = uint32(capacity - 1)
	m.growAt = capacity * 13 / 16
	m.used = make([]bool, capacity)
	m.keys = make([]uint64, capacity)
	m.vals = make([]int64, capacity)
}

//tyr:hotpath
func (m *tagMap) len() int { return m.n }

//tyr:hotpath
func (m *tagMap) get(key uint64) (int64, bool) {
	i := hashTag(key) & m.mask
	for m.used[i] {
		if m.keys[i] == key {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// put sets key to v, inserting it if absent.
//
//tyr:hotpath
func (m *tagMap) put(key uint64, v int64) {
	if m.n >= m.growAt {
		m.grow()
	}
	i := hashTag(key) & m.mask
	for m.used[i] {
		if m.keys[i] == key {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.used[i] = true
	m.keys[i] = key
	m.vals[i] = v
	m.n++
}

// add adjusts key's value by delta (inserting at delta if absent) and
// returns the new value.
//
//tyr:hotpath
func (m *tagMap) add(key uint64, delta int64) int64 {
	if m.n >= m.growAt {
		m.grow()
	}
	i := hashTag(key) & m.mask
	for m.used[i] {
		if m.keys[i] == key {
			m.vals[i] += delta
			return m.vals[i]
		}
		i = (i + 1) & m.mask
	}
	m.used[i] = true
	m.keys[i] = key
	m.vals[i] = delta
	m.n++
	return delta
}

//tyr:hotpath
func (m *tagMap) del(key uint64) {
	i := hashTag(key) & m.mask
	for {
		if !m.used[i] {
			return
		}
		if m.keys[i] == key {
			break
		}
		i = (i + 1) & m.mask
	}
	m.used[i] = false
	m.n--
	j := i
	for {
		j = (j + 1) & m.mask
		if !m.used[j] {
			return
		}
		h := hashTag(m.keys[j]) & m.mask
		if (j-h)&m.mask >= (j-i)&m.mask {
			m.used[i] = true
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			m.used[j] = false
			i = j
		}
	}
}

func (m *tagMap) grow() {
	oldUsed, oldKeys, oldVals := m.used, m.keys, m.vals
	m.alloc(2 * (int(m.mask) + 1)) // n is unchanged: rehashing moves entries, it doesn't add them
	for j := range oldUsed {
		if !oldUsed[j] {
			continue
		}
		i := hashTag(oldKeys[j]) & m.mask
		for m.used[i] {
			i = (i + 1) & m.mask
		}
		m.used[i] = true
		m.keys[i] = oldKeys[j]
		m.vals[i] = oldVals[j]
	}
}
