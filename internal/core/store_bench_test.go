package core

import "testing"

// Micro-benchmarks over the matching hot path's data structures. CI runs
// these with -benchtime=100x as a smoke check that the allocation-free
// property holds (b.ReportAllocs makes regressions visible); run locally
// with default benchtime for meaningful ns/op.

// BenchmarkStorePooledMatchCycle is the per-token inner loop: lookup-or-
// insert, deliver one operand, and on the second operand read out and
// delete — the life of one two-input dynamic instance. The tags are
// indices 0..1023 of one 4096-tag space over a resident population, so
// every page stays in use.
func BenchmarkStorePooledMatchCycle(b *testing.B) {
	const base = uint64(1) << 32
	var ws waitStore
	var pages pagePool
	ws.init(2, 1, 2, []int64{0, 0}, base, &pages)
	for k := uint64(1024); k < 1024+256; k++ {
		ws.insert(base+k, 4096) // resident background population
	}
	for k := uint64(0); k < 1024; k++ { // pre-grow to the working set
		ws.insert(base+k, 4096)
	}
	for k := uint64(0); k < 1024; k++ {
		ws.delSlot(base+k, ws.lookup(base+k))
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := base + uint64(i%1024)
		slot := ws.lookup(tag)
		if slot < 0 {
			slot = ws.insert(tag, 4096)
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
		ws.delSlot(tag, slot)
	}
	_ = sink
}

// BenchmarkStorePageChurn empties and refills directory pages: each op
// opens one instance on each of eight pages of two stores, then closes
// them all, so every page goes back to the machine's pool and comes out
// again, for the other store as often as for its own.
func BenchmarkStorePageChurn(b *testing.B) {
	const base = uint64(2) << 32
	var pages pagePool
	var stores [2]waitStore
	for s := range stores {
		stores[s].init(2, 1, 2, []int64{0, 0}, base, &pages)
	}
	step := func(i int) {
		ws := &stores[i%2]
		for p := uint64(0); p < 8; p++ {
			ws.insert(base+p*wsPageSize+uint64(i%wsPageSize), 8*wsPageSize)
		}
		for p := uint64(0); p < 8; p++ {
			tag := base + p*wsPageSize + uint64(i%wsPageSize)
			ws.delSlot(tag, ws.lookup(tag))
		}
	}
	step(0) // grow to the working set
	step(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
