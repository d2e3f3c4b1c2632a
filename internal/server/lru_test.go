package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/prog"
)

// sumLoop parses a one-loop program whose formatted IR, and so whose cache
// key, differs per bound.
func sumLoop(t *testing.T, bound int) *prog.Program {
	t.Helper()
	p, err := prog.Parse(fmt.Sprintf(`program "sumloop%d" entry main

func main() {
  loop "L" carry (i = 0, s = 0) while i < %d {
    s = s + i
    i = i + 1
  }
  return s
}
`, bound, bound))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSourceHashKeysEveryInput pins the cache key's identity: the same
// (lowering, program, args) derives the same key even from a separately
// parsed copy of the source, and changing any one of the three derives a
// different key.
func TestSourceHashKeysEveryInput(t *testing.T) {
	key := sourceHash("tagged", &apps.App{Prog: sumLoop(t, 3), Args: []int64{1, 2}})
	if again := sourceHash("tagged", &apps.App{Prog: sumLoop(t, 3), Args: []int64{1, 2}}); again != key {
		t.Fatalf("same source, different keys: %s vs %s", key, again)
	}
	for _, c := range []struct {
		change string
		key    string
	}{
		{"lowering", sourceHash("ordered", &apps.App{Prog: sumLoop(t, 3), Args: []int64{1, 2}})},
		{"program", sourceHash("tagged", &apps.App{Prog: sumLoop(t, 4), Args: []int64{1, 2}})},
		{"args", sourceHash("tagged", &apps.App{Prog: sumLoop(t, 3), Args: []int64{1, 3}})},
		{"arg count", sourceHash("tagged", &apps.App{Prog: sumLoop(t, 3)})},
	} {
		if c.key == key {
			t.Errorf("changing the %s leaves the key at %s", c.change, key)
		}
	}
}

// TestGraphCacheConcurrentEviction hammers a capacity-4 cache with 8
// goroutines x 16 distinct keys (distinct entry args on one parsed
// program), asserting the counters reconcile exactly and the single-flight
// invariant holds: no key is ever being compiled by two goroutines at
// once, even while eviction pressure keeps throwing compiled graphs out.
func TestGraphCacheConcurrentEviction(t *testing.T) {
	const (
		workers  = 8
		distinct = 16
		capacity = 4
		rounds   = 12
	)
	// distinct keys = distinct programs: same shape, different loop bound,
	// so the formatted-IR cache key differs per k.
	progs := make([]*prog.Program, distinct)
	for k := range progs {
		progs[k] = sumLoop(t, k+2)
	}
	stats := NewMetrics()
	c := NewGraphCache(capacity, stats)

	// inflight[k] counts goroutines currently inside the build function
	// for key k; the single-flight contract says it never exceeds 1.
	var inflight [distinct]atomic.Int32
	var builds, gets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < distinct; k++ {
					app := &apps.App{Name: fmt.Sprintf("k%d", k), Prog: progs[k]}
					g, _, err := c.get("tagged", app, func() (*dfg.Graph, error) {
						if n := inflight[k].Add(1); n != 1 {
							t.Errorf("key %d compiled by %d goroutines concurrently", k, n)
						}
						defer inflight[k].Add(-1)
						builds.Add(1)
						return compile.Tagged(app.Prog, compile.Options{})
					})
					if g == nil || err != nil {
						t.Errorf("get key %d: graph=%v err=%v", k, g, err)
						return
					}
					gets.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	hits := stats.cacheHits.Load()
	misses := stats.cacheMisses.Load()
	evictions := stats.cacheEvictions.Load()
	if hits+misses != gets.Load() {
		t.Errorf("hits %d + misses %d != gets %d", hits, misses, gets.Load())
	}
	if misses != builds.Load() {
		t.Errorf("misses %d != builds %d (every successful build is exactly one miss)", misses, builds.Load())
	}
	if int64(c.Len())+evictions != misses {
		t.Errorf("len %d + evictions %d != misses %d (every miss inserts, every insert is live or evicted)",
			c.Len(), evictions, misses)
	}
	if c.Len() > capacity {
		t.Errorf("cache over capacity: %d > %d", c.Len(), capacity)
	}
	if misses < distinct {
		t.Errorf("misses %d < %d distinct keys", misses, distinct)
	}
}

// TestGraphCacheBuildPanicReleasesKey pins that a compile which panics
// still releases its single-flight entry: the panic reaches the caller
// (the pool job recovers it), and the next lookup of the same key compiles
// afresh instead of waiting forever on the abandoned build.
func TestGraphCacheBuildPanicReleasesKey(t *testing.T) {
	c := NewGraphCache(4, nil)
	app := &apps.App{Prog: sumLoop(t, 5)}
	func() {
		defer func() {
			if v := recover(); v != "compiler bug" {
				t.Errorf("recovered %v, want the build's panic", v)
			}
		}()
		c.get("tagged", app, func() (*dfg.Graph, error) { panic("compiler bug") })
	}()

	done := make(chan error, 1)
	go func() {
		_, hit, err := c.tagged(app)
		if err == nil && hit {
			err = fmt.Errorf("lookup after the panic hit the cache; want a fresh compile")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup after a panicking build is still waiting on it")
	}
}
