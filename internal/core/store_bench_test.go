package core

import "testing"

// Micro-benchmarks over the matching hot path's data structures. CI runs
// these with -benchtime=100x as a smoke check that the allocation-free
// property holds (b.ReportAllocs makes regressions visible); run locally
// with default benchtime for meaningful ns/op.

// benchStore builds a 2-input store warmed to steady-state capacity.
func benchStore(liveTags int) *waitStore {
	var ws waitStore
	ws.init(2, 1, 2, []int64{0, 0}, 0, 0)
	for k := uint64(0); k < uint64(liveTags); k++ {
		ws.insert(k << 32) // resident background population
	}
	return &ws
}

// BenchmarkStoreMatchCycle is the per-token inner loop: lookup-or-insert,
// deliver one operand, and on the second operand read out and delete —
// the life of one two-input dynamic instance.
func BenchmarkStoreMatchCycle(b *testing.B) {
	ws := benchStore(256)
	for tag := uint64(1); tag <= 1024; tag++ { // pre-grow to the working set
		ws.insert(tag)
	}
	for tag := uint64(1); tag <= 1024; tag++ {
		ws.delSlot(ws.lookup(tag))
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := uint64(i%1024) + 1
		slot := ws.lookup(tag)
		if slot < 0 {
			slot = ws.insert(tag)
			ws.valSlice(slot)[0] = int64(i)
			ws.set(slot, 0)
			ws.need[slot]--
			continue
		}
		ws.valSlice(slot)[1] = int64(i)
		ws.set(slot, 1)
		ws.need[slot]--
		v := ws.valSlice(slot)
		sink += v[0] + v[1]
		ws.delSlot(slot)
	}
	_ = sink
}

// BenchmarkStorePooledMatchCycle is BenchmarkStoreMatchCycle's loop on a
// pooled store: the tags are indices 0..1023 of one 4096-tag pool, which
// a TYR block's tags are.
func BenchmarkStorePooledMatchCycle(b *testing.B) {
	const base = uint64(1) << 32
	var ws waitStore
	ws.init(2, 1, 2, []int64{0, 0}, base, 4096)
	for k := uint64(1024); k < 1024+256; k++ {
		ws.insert(base + k) // resident background population
	}
	for k := uint64(0); k < 1024; k++ { // pre-grow to the working set
		ws.insert(base + k)
	}
	for k := uint64(0); k < 1024; k++ {
		ws.delSlot(ws.lookup(base + k))
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := base + uint64(i%1024)
		slot := ws.lookup(tag)
		if slot < 0 {
			slot = ws.insert(tag)
			ws.valSlice(slot)[0] = int64(i)
			ws.set(slot, 0)
			ws.need[slot]--
			continue
		}
		ws.valSlice(slot)[1] = int64(i)
		ws.set(slot, 1)
		ws.need[slot]--
		v := ws.valSlice(slot)
		sink += v[0] + v[1]
		ws.delSlot(slot)
	}
	_ = sink
}

// BenchmarkStoreMatchCycleColliding is the same loop under adversarial
// tags that share a home slot, forcing probe chains on every operation.
func BenchmarkStoreMatchCycleColliding(b *testing.B) {
	ws := benchStore(0)
	home := hashTag(1) & 127
	var colliders []uint64
	for tag := uint64(1); len(colliders) < 64; tag++ {
		if hashTag(tag)&127 == home {
			colliders = append(colliders, tag)
		}
	}
	step := func(i int) {
		tag := colliders[i%len(colliders)]
		slot := ws.lookup(tag)
		if slot < 0 {
			slot = ws.insert(tag)
			ws.set(slot, 0)
			ws.need[slot]--
			return
		}
		ws.delSlot(slot)
	}
	for i := 0; i < 2*len(colliders); i++ { // grow to the working set
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkStoreLookupHit measures a pure probe on a half-full table.
func BenchmarkStoreLookupHit(b *testing.B) {
	ws := benchStore(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws.lookup(uint64(i%512)<<32) < 0 {
			b.Fatal("resident tag not found")
		}
	}
}

// BenchmarkTagMapChurn is the k-bounding index pattern: add until a
// threshold, then delete — keys retire constantly while the table stays
// small.
func BenchmarkTagMapChurn(b *testing.B) {
	tm := newTagMap()
	step := func(i int) {
		key := uint64(i % 128)
		if tm.add(key, 1) >= 4 {
			tm.del(key)
		}
	}
	for i := 0; i < 4*128; i++ { // grow to the working set
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
