package core

import (
	"runtime"
	"testing"
	"testing/quick"
)

// The property tests drive waitStore against a plain-map reference model
// under randomized insert/match/mutate/delete streams, mirroring
// internal/cache/cache_prop_test.go. Every key is drawn from one pool of
// 300 indices, so the store's directory, its pages and its arena grow,
// empty and refill mid-stream.

// storeOp is one randomized store operation.
type storeOp struct {
	Kind uint8 // % 4: 0 insert, 1 delete, 2 set operand, 3 flag twiddle
	Key  uint16
	Port uint8
	Val  int64
}

// The pool the property store draws its tags from: space 3, 300 tags.
const (
	propPoolBase = uint64(3) << 32
	propPoolSize = 300
)

// propPoolTag maps a key to a tag of the property pool.
func propPoolTag(key uint16) uint64 {
	return propPoolBase + uint64(key)%propPoolSize
}

// refInstance is the reference model's per-instance state.
type refInstance struct {
	need    int32
	flags   uint8
	vals    []int64
	present []bool
}

// checkAgainstRef compares every instance in ws against ref.
func checkAgainstRef(t *testing.T, ws *waitStore, ref map[uint64]*refInstance) bool {
	t.Helper()
	if ws.len() != len(ref) {
		t.Logf("len %d != ref %d", ws.len(), len(ref))
		return false
	}
	seen := 0
	ok := true
	ws.forEach(func(tag uint64, slot int32) {
		seen++
		ri, present := ref[tag]
		if !present {
			t.Logf("tag %#x in store but not in ref", tag)
			ok = false
			return
		}
		if ws.lookup(tag) != slot {
			t.Logf("tag %#x: lookup %d != forEach slot %d", tag, ws.lookup(tag), slot)
			ok = false
			return
		}
		if ws.need[slot] != ri.need || ws.flags[slot] != ri.flags {
			t.Logf("tag %#x: need/flags %d/%d != ref %d/%d",
				tag, ws.need[slot], ws.flags[slot], ri.need, ri.flags)
			ok = false
			return
		}
		vals := ws.valSlice(slot)
		for p := 0; p < ws.nIn; p++ {
			// A token-fed operand is defined once delivered; a constant
			// one always is.
			defined := ri.present[p] || propConstPort(p)
			if defined && vals[p] != ri.vals[p] || ws.has(slot, p) != ri.present[p] {
				t.Logf("tag %#x port %d: val %d/%v != ref %d/%v",
					tag, p, vals[p], ws.has(slot, p), ri.vals[p], ri.present[p])
				ok = false
				return
			}
		}
	})
	if seen != len(ref) {
		t.Logf("forEach visited %d, ref has %d", seen, len(ref))
		return false
	}
	return ok
}

// propConstPort reports whether port p of a property store is
// const-bound: every odd port is, as a node's constant operands are.
func propConstPort(p int) bool { return p%2 == 1 }

// runStoreOps applies ops to a fresh store and to the reference model.
// Like the engine, the ops write only token-fed ports: a record's constant
// operands are written when it is allocated, and must survive every
// insert, delete and grow after that.
func runStoreOps(t *testing.T, nIn int, ops []storeOp) bool {
	t.Helper()
	words := (nIn + 63) / 64
	consts := make([]int64, nIn)
	needInit := int32(0)
	for p := range consts {
		if propConstPort(p) {
			consts[p] = int64(100 + p)
		} else {
			needInit++
		}
	}
	var ws waitStore
	var pages pagePool
	ws.init(nIn, words, needInit, consts, propPoolBase, &pages)
	ref := map[uint64]*refInstance{}

	for _, op := range ops {
		tag := propPoolTag(op.Key)
		port := int(op.Port) % nIn
		switch op.Kind % 4 {
		case 0:
			if _, exists := ref[tag]; exists {
				continue // insert requires absence; treat as no-op
			}
			slot := ws.insert(tag, propPoolSize)
			ri := &refInstance{need: needInit, vals: make([]int64, nIn), present: make([]bool, nIn)}
			copy(ri.vals, consts)
			ref[tag] = ri
			if slot < 0 || ws.lookup(tag) != slot || ws.tags[slot] != tag {
				t.Logf("insert %#x returned bad slot %d", tag, slot)
				return false
			}
		case 1:
			slot := ws.lookup(tag)
			if _, exists := ref[tag]; exists != (slot >= 0) {
				t.Logf("tag %#x: ref present=%v but lookup=%d", tag, exists, slot)
				return false
			}
			if slot >= 0 {
				ws.delSlot(tag, slot)
				delete(ref, tag)
			}
		case 2:
			if propConstPort(port) {
				continue // deliver refuses a token to a const-bound port
			}
			slot := ws.lookup(tag)
			ri := ref[tag]
			if (slot >= 0) != (ri != nil) {
				t.Logf("tag %#x: ref present=%v but lookup=%d", tag, ri != nil, slot)
				return false
			}
			if slot < 0 {
				continue
			}
			ws.valSlice(slot)[port] = op.Val
			ri.vals[port] = op.Val
			if !ws.has(slot, port) {
				ws.set(slot, port)
				ws.need[slot]--
				ri.present[port] = true
				ri.need--
			}
		case 3:
			slot := ws.lookup(tag)
			if slot < 0 {
				continue
			}
			f := wsPopped << (op.Port % 3)
			if op.Val&1 == 0 {
				ws.setFlag(slot, f)
				ref[tag].flags |= f
			} else {
				ws.clearFlag(slot, f)
				ref[tag].flags &^= f
			}
		}
	}
	if !checkAgainstRef(t, &ws, ref) {
		return false
	}
	// Every page that names no record is back in the pool, but for at
	// most one: the page a store keeps when it empties as its last.
	inUse, empty := 0, 0
	for _, pg := range ws.dir {
		if pg != nil {
			inUse++
			if pg.used == 0 {
				empty++
			}
		}
	}
	if inUse != ws.npages || empty > 1 || inUse+len(pages.free) != pages.made {
		t.Logf("%d pages in the directory (%d empty, npages %d) and %d free, %d made",
			inUse, empty, ws.npages, len(pages.free), pages.made)
		return false
	}
	return true
}

// TestPropStoreMatchesMapReference: a waitStore driven by a random
// insert/delete/operand/flag stream agrees with a map-backed reference
// model on membership, slot data, presence bits, and flags, across
// directory and arena growth, pages recycled as they empty, and record
// reuse.
func TestPropStoreMatchesMapReference(t *testing.T) {
	for _, nIn := range []int{1, 2, 3, 7} {
		prop := func(ops []storeOp) bool { return runStoreOps(t, nIn, ops) }
		if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
			t.Fatalf("nIn=%d: %v", nIn, err)
		}
	}
}

// TestStorePooledRefusesForeignTag: a store has no slot for a tag outside
// the indices its space has handed out, whether below the base, past the
// limit, or from another space, and refusing one leaves the store
// untouched.
func TestStorePooledRefusesForeignTag(t *testing.T) {
	var ws waitStore
	var pages pagePool
	ws.init(2, 1, 2, []int64{0, 0}, propPoolBase, &pages)
	ws.insert(propPoolBase+5, propPoolSize)
	dirLen, arenaLen, made := len(ws.dir), len(ws.tags), pages.made
	for _, tag := range []uint64{
		propPoolBase - 1,
		propPoolBase + propPoolSize,
		propPoolBase + propPoolSize<<1,
		uint64(4) << 32,
		0,
	} {
		if slot := ws.insert(tag, propPoolSize); slot != -1 {
			t.Errorf("insert(%#x) = slot %d, want -1", tag, slot)
		}
		if slot := ws.lookup(tag); slot != -1 {
			t.Errorf("lookup(%#x) = slot %d, want -1", tag, slot)
		}
	}
	if ws.len() != 1 || len(ws.dir) != dirLen || len(ws.tags) != arenaLen || pages.made != made {
		t.Errorf("refused inserts changed the store: len %d, dir %d (was %d), arena %d (was %d), pages %d (was %d)",
			ws.len(), len(ws.dir), dirLen, len(ws.tags), arenaLen, pages.made, made)
	}
	last := propPoolBase + propPoolSize - 1
	if slot := ws.insert(last, propPoolSize); slot < 0 || ws.lookup(last) != slot {
		t.Fatalf("the pool's last index was refused")
	}
	if want := propPoolSize/wsPageSize + 1; len(ws.dir) != want || pages.made != 2 {
		t.Errorf("directory of %d pages (want %d) with %d made (want 2)", len(ws.dir), want, pages.made)
	}
}

// mallocs counts the heap allocations of rounds calls of f, after one
// warm-up call. Unlike testing.AllocsPerRun it does not average and
// truncate, so a structure that allocates once in many rounds shows.
func mallocs(rounds int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStoreSteadyStateAllocFree: once the store and its page pool have
// grown to the working-set size, an insert/fill/delete churn loop performs
// zero heap allocations over 50 rounds — the property the whole store
// design exists for. Each round fills 64 indices spread over four pages
// and empties them again, so every page but the store's last goes back to
// the pool and comes out again.
func TestStoreSteadyStateAllocFree(t *testing.T) {
	var ws waitStore
	var pages pagePool
	ws.init(2, 1, 2, []int64{0, 0}, propPoolBase, &pages)
	churn := func(first uint64) {
		for k := uint64(0); k < 64; k++ {
			tag := propPoolBase + first + k*4
			slot := ws.insert(tag, 1024)
			ws.valSlice(slot)[0] = int64(k)
			ws.set(slot, 0)
			ws.need[slot]--
		}
		for k := uint64(0); k < 64; k++ {
			tag := propPoolBase + first + k*4
			ws.delSlot(tag, ws.lookup(tag))
		}
	}
	churn(0) // grow to capacity
	if n := mallocs(50, func() { churn(1) }); n != 0 {
		t.Fatalf("steady-state churn allocated %d times in 50 rounds", n)
	}
	if len(ws.dir) != 4 || pages.made != 4 || ws.npages != 1 || len(pages.free) != 3 {
		t.Fatalf("churn left a directory of %d pages, %d made, %d kept, %d free; want 4, 4, 1, 3",
			len(ws.dir), pages.made, ws.npages, len(pages.free))
	}
}
