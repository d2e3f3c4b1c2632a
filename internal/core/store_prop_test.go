package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// The property tests drive waitStore and tagMap against plain-map
// reference models under randomized insert/match/mutate/delete streams,
// mirroring internal/cache/cache_prop_test.go. The tag generators bias
// toward small dense values and pool-style space<<32|idx encodings —
// exactly the structured keys the engines produce, and the worst case for
// a weak hash — plus deliberately colliding keys to exercise linear
// probing and backward-shift deletion across wrap-around. The same op
// streams drive a pooled store with every key drawn from one pool, so its
// directory and arena grow mid-stream.

// storeOp is one randomized store operation.
type storeOp struct {
	Kind uint8 // % 4: 0 insert, 1 delete, 2 set operand, 3 flag twiddle
	Key  uint16
	Port uint8
	Val  int64
}

// propTag maps a small key into a structured tag. Half the keys become
// pool-style encodings, so many tags share low bits.
func propTag(key uint16) uint64 {
	if key&1 == 0 {
		return uint64(key >> 1)
	}
	return uint64(key>>8)<<32 | uint64(key&0xff)
}

// The pool the pooled property store draws its tags from: space 3 of a
// per-space policy, 300 tags.
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

// runStoreOps applies ops to a fresh store and to the reference model: a
// hashed store over propTag's keys, or a pooled one over propPoolTag's.
// Like the engine, the ops write only token-fed ports: a record's constant
// operands are written when it is allocated, and must survive every
// insert, delete, grow and shift after that.
func runStoreOps(t *testing.T, nIn int, pooled bool, ops []storeOp) bool {
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
	tagOf := propTag
	if pooled {
		ws.init(nIn, words, needInit, consts, propPoolBase, propPoolSize)
		tagOf = propPoolTag
	} else {
		ws.init(nIn, words, needInit, consts, 0, 0)
	}
	ref := map[uint64]*refInstance{}

	for _, op := range ops {
		tag := tagOf(op.Key)
		port := int(op.Port) % nIn
		switch op.Kind % 4 {
		case 0:
			if _, exists := ref[tag]; exists {
				continue // insert requires absence; treat as no-op
			}
			slot := ws.insert(tag)
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
				ws.delSlot(slot)
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
	return checkAgainstRef(t, &ws, ref)
}

// TestPropStoreMatchesMapReference: a waitStore driven by a random
// insert/delete/operand/flag stream agrees with a map-backed reference
// model on membership, slot data, presence bits, and flags, across grows
// and backward-shift deletions (hashed) or directory and arena growth and
// record reuse (pooled).
func TestPropStoreMatchesMapReference(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for _, nIn := range []int{1, 2, 3, 7} {
			prop := func(ops []storeOp) bool { return runStoreOps(t, nIn, pooled, ops) }
			if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatalf("pooled=%v nIn=%d: %v", pooled, nIn, err)
			}
		}
	}
}

// TestStorePooledRefusesForeignTag: a pooled store has no slot for a tag
// outside its pool, whether below the base, past the last index, or from
// another space's pool, and refusing one leaves the store untouched.
func TestStorePooledRefusesForeignTag(t *testing.T) {
	var ws waitStore
	ws.init(2, 1, 2, []int64{0, 0}, propPoolBase, propPoolSize)
	ws.insert(propPoolBase + 5)
	dirLen, arenaLen := len(ws.dir), len(ws.tags)
	for _, tag := range []uint64{
		propPoolBase - 1,
		propPoolBase + propPoolSize,
		propPoolBase + propPoolSize<<1,
		uint64(4) << 32,
		0,
	} {
		if slot := ws.insert(tag); slot != -1 {
			t.Errorf("insert(%#x) = slot %d, want -1", tag, slot)
		}
		if slot := ws.lookup(tag); slot != -1 {
			t.Errorf("lookup(%#x) = slot %d, want -1", tag, slot)
		}
	}
	if ws.len() != 1 || len(ws.dir) != dirLen || len(ws.tags) != arenaLen {
		t.Errorf("refused inserts changed the store: len %d, dir %d (was %d), arena %d (was %d)",
			ws.len(), len(ws.dir), dirLen, len(ws.tags), arenaLen)
	}
	last := propPoolBase + propPoolSize - 1
	if slot := ws.insert(last); slot < 0 || ws.lookup(last) != slot {
		t.Fatalf("the pool's last index was refused")
	}
	if len(ws.dir) != propPoolSize {
		t.Errorf("directory grew to %d entries, want the pool's %d", len(ws.dir), propPoolSize)
	}
}

// TestPropStoreCollisionChains: adversarial tags that all share the same
// home slot (identical hash modulo the table size), so every operation
// walks a probe chain and deletions shift entries across the wrap-around
// boundary.
func TestPropStoreCollisionChains(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ws waitStore
		ws.init(1, 1, 1, []int64{0}, 0, 0)
		ref := map[uint64]int64{}

		// Keys whose hash lands in the same 8-slot home bucket: step the
		// tag by multiples that preserve hash(tag) & 7. hashTag is a
		// multiply-shift, so precompute by search.
		var colliders []uint64
		home := hashTag(1) & 7
		for tag := uint64(1); len(colliders) < 64; tag++ {
			if hashTag(tag)&7 == home {
				colliders = append(colliders, tag)
			}
		}
		for step := 0; step < 4000; step++ {
			tag := colliders[rng.Intn(len(colliders))]
			if _, ok := ref[tag]; ok {
				if rng.Intn(2) == 0 {
					slot := ws.lookup(tag)
					if slot < 0 {
						t.Logf("step %d: tag %#x in ref but not in store", step, tag)
						return false
					}
					if got := ws.valSlice(slot)[0]; got != ref[tag] {
						t.Logf("step %d: tag %#x val %d != ref %d", step, tag, got, ref[tag])
						return false
					}
					ws.delSlot(slot)
					delete(ref, tag)
				}
				continue
			}
			if ws.lookup(tag) >= 0 {
				t.Logf("step %d: tag %#x absent from ref but found", step, tag)
				return false
			}
			v := rng.Int63()
			slot := ws.insert(tag)
			ws.valSlice(slot)[0] = v
			ref[tag] = v
		}
		for tag, v := range ref {
			slot := ws.lookup(tag)
			if slot < 0 || ws.valSlice(slot)[0] != v {
				t.Logf("final: tag %#x missing or wrong", tag)
				return false
			}
		}
		return ws.len() == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// tagMapOp is one randomized tagMap operation.
type tagMapOp struct {
	Kind  uint8 // % 4: 0 put, 1 add, 2 del, 3 get (membership check)
	Key   uint16
	Delta int64
}

// TestPropTagMapMatchesMapReference: tagMap agrees with a Go map under
// random put/add/del streams over structured keys.
func TestPropTagMapMatchesMapReference(t *testing.T) {
	prop := func(ops []tagMapOp) bool {
		tm := newTagMap()
		ref := map[uint64]int64{}
		for _, op := range ops {
			key := propTag(op.Key)
			switch op.Kind % 4 {
			case 0:
				tm.put(key, op.Delta)
				ref[key] = op.Delta
			case 1:
				got := tm.add(key, op.Delta)
				ref[key] += op.Delta
				if got != ref[key] {
					t.Logf("add %#x: %d != ref %d", key, got, ref[key])
					return false
				}
			case 2:
				tm.del(key)
				delete(ref, key)
			case 3:
				v, ok := tm.get(key)
				rv, rok := ref[key]
				if ok != rok || v != rv {
					t.Logf("get %#x: %d,%v != ref %d,%v", key, v, ok, rv, rok)
					return false
				}
			}
		}
		if tm.len() != len(ref) {
			t.Logf("len %d != ref %d", tm.len(), len(ref))
			return false
		}
		for key, rv := range ref {
			if v, ok := tm.get(key); !ok || v != rv {
				t.Logf("final get %#x: %d,%v != ref %d", key, v, ok, rv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
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

// TestStoreSteadyStateAllocFree: once the store has grown to the
// working-set size, an insert/fill/delete churn loop performs zero heap
// allocations over 50 rounds — the property the whole store design
// exists for. The hashed store churns fresh tags; the pooled one churns
// its pool's indices.
func TestStoreSteadyStateAllocFree(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		var ws waitStore
		base, churnBase := uint64(0), uint64(1000)
		if pooled {
			base, churnBase = propPoolBase, propPoolBase
			ws.init(2, 1, 2, []int64{0, 0}, propPoolBase, 64)
		} else {
			ws.init(2, 1, 2, []int64{0, 0}, 0, 0)
		}
		warm := func(base uint64) {
			for k := uint64(0); k < 64; k++ {
				slot := ws.insert(base + k)
				ws.valSlice(slot)[0] = int64(k)
				ws.set(slot, 0)
				ws.need[slot]--
			}
			for k := uint64(0); k < 64; k++ {
				ws.delSlot(ws.lookup(base + k))
			}
		}
		warm(base) // grow to capacity
		if n := mallocs(50, func() { warm(churnBase) }); n != 0 {
			t.Fatalf("pooled=%v: steady-state churn allocated %d times in 50 rounds", pooled, n)
		}
	}
	tm := newTagMap()
	churn := func(base uint64) {
		for k := uint64(0); k < 64; k++ {
			tm.add(base+k, int64(k))
		}
		for k := uint64(0); k < 64; k++ {
			tm.del(base + k)
		}
	}
	churn(0)
	if n := mallocs(50, func() { churn(1000) }); n != 0 {
		t.Fatalf("tagMap steady-state churn allocated %d times in 50 rounds", n)
	}
}
