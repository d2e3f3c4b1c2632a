package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/prog"
)

// GraphCache is a bounded LRU of compiled dataflow graphs keyed by the
// workload's source identity (formatted IR + entry args + lowering). The
// engines never mutate a *dfg.Graph, so one compiled graph is safely shared
// by any number of concurrent runs. It implements harness.GraphSource.
type GraphCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry

	// single-flight: concurrent misses on the same key compile once.
	inflight map[string]*sync.WaitGroup

	stats *Metrics
}

type cacheEntry struct {
	key string
	g   *dfg.Graph
}

// NewGraphCache returns a cache holding at most max graphs (min 1).
func NewGraphCache(max int, stats *Metrics) *GraphCache {
	if max < 1 {
		max = 1
	}
	return &GraphCache{
		max:      max,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*sync.WaitGroup),
		stats:    stats,
	}
}

// sourceHash derives the workload's content identity as lowercase hex:
// SHA-256 over lowering NUL formatted IR NUL entry args. Formatting the IR
// (rather than hashing the *Program pointer) makes identical inline
// sources hit the same entry regardless of which request parsed them.
func sourceHash(lowering string, app *apps.App) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%v", lowering, prog.Format(app.Prog), app.Args)
	return hex.EncodeToString(h.Sum(nil))
}

// Len reports the number of cached graphs.
func (c *GraphCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Tagged implements harness.GraphSource.
func (c *GraphCache) Tagged(app *apps.App) (*dfg.Graph, error) {
	g, _, err := c.tagged(app)
	return g, err
}

// Ordered implements harness.GraphSource.
func (c *GraphCache) Ordered(app *apps.App) (*dfg.Graph, error) {
	g, _, err := c.ordered(app)
	return g, err
}

// tagged/ordered additionally report whether the lookup hit, for the
// request-span wrapper (spanGraphs) that annotates compile spans.
func (c *GraphCache) tagged(app *apps.App) (*dfg.Graph, bool, error) {
	return c.get("tagged", app, func() (*dfg.Graph, error) {
		return compile.Tagged(app.Prog, compile.Options{EntryArgs: app.Args})
	})
}

func (c *GraphCache) ordered(app *apps.App) (*dfg.Graph, bool, error) {
	return c.get("ordered", app, func() (*dfg.Graph, error) {
		return compile.Ordered(app.Prog, compile.Options{EntryArgs: app.Args})
	})
}

func (c *GraphCache) get(lowering string, app *apps.App, build func() (*dfg.Graph, error)) (*dfg.Graph, bool, error) {
	key := lowering + ":" + sourceHash(lowering, app)
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			g := el.Value.(*cacheEntry).g
			c.mu.Unlock()
			if c.stats != nil {
				c.stats.cacheHits.Add(1)
			}
			return g, true, nil
		}
		if wg, busy := c.inflight[key]; busy {
			// Another request is compiling this graph; wait and re-check
			// (the compile may have failed, in which case we retry it).
			c.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		c.inflight[key] = wg
		c.mu.Unlock()

		g, err := func() (*dfg.Graph, error) {
			defer func() {
				if v := recover(); v != nil {
					// Release the waiters, then re-raise for the pool job
					// to recover: an inflight entry left behind would park
					// every later lookup of this key forever.
					c.mu.Lock()
					delete(c.inflight, key)
					c.mu.Unlock()
					wg.Done()
					panic(v)
				}
			}()
			return build()
		}()

		c.mu.Lock()
		delete(c.inflight, key)
		wg.Done()
		if err != nil {
			c.mu.Unlock()
			return nil, false, err
		}
		el := c.order.PushFront(&cacheEntry{key: key, g: g})
		c.entries[key] = el
		evicted := 0
		for c.order.Len() > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			evicted++
		}
		size := c.order.Len()
		c.mu.Unlock()
		if c.stats != nil {
			c.stats.cacheMisses.Add(1)
			c.stats.SetGraphCacheSize(int64(size))
			for i := 0; i < evicted; i++ {
				c.stats.ObserveEviction()
			}
		}
		return g, false, nil
	}
}
