// Package mem provides the flat, word-addressed memory substrate shared by
// the reference interpreter and all simulated architectures.
//
// A program's data lives in named regions (arrays of int64 words). Regions
// are identified by index at runtime; names exist for construction and
// debugging. An Image is cheap to clone so that every simulated architecture
// can run against an identical initial memory and the final images can be
// compared word-for-word.
package mem

import (
	"fmt"
	"sort"
)

// AccessKind distinguishes loads from stores for AccessModel hooks.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessStore
)

func (k AccessKind) String() string {
	if k == AccessStore {
		return "store"
	}
	return "load"
}

// AccessModel is the pluggable memory-system timing hook every simulated
// architecture routes its loads and stores through. Access receives the
// current simulated cycle, the access kind, and the (region, word address)
// pair, and returns the access latency in cycles (>= 1). A model returning
// 1 for every access is timing-equivalent to the ideal flat memory; the
// multi-level hierarchy in internal/cache returns hit/miss-dependent
// latencies. Data always moves through the Image directly — an AccessModel
// shapes time, never values — so simulated results are independent of the
// attached model by construction.
type AccessModel interface {
	Access(cycle int64, kind AccessKind, region int, addr int64) int64
}

// LoadLatency is the fixed-latency memory: every load takes that many
// cycles (at least one) and every store one, whatever the address.
type LoadLatency int64

// Access implements AccessModel.
func (n LoadLatency) Access(_ int64, kind AccessKind, _ int, _ int64) int64 {
	if kind == AccessLoad && n > 1 {
		return int64(n)
	}
	return 1
}

// Region is a single named array of words.
type Region struct {
	Name  string
	Words []int64
}

// Image is an ordered collection of regions. The zero value is an empty
// image ready for use.
type Image struct {
	regions []Region
	byName  map[string]int
}

// NewImage returns an empty memory image.
func NewImage() *Image {
	return &Image{byName: make(map[string]int)}
}

// AddRegion appends a zero-filled region of the given size and returns its
// index. It panics if the name is already taken or size is negative, since
// both indicate a programming error during workload construction.
func (im *Image) AddRegion(name string, size int) int {
	if im.byName == nil {
		im.byName = make(map[string]int)
	}
	if _, ok := im.byName[name]; ok {
		panic(fmt.Sprintf("mem: duplicate region %q", name))
	}
	if size < 0 {
		panic(fmt.Sprintf("mem: negative size %d for region %q", size, name))
	}
	idx := len(im.regions)
	im.regions = append(im.regions, Region{Name: name, Words: make([]int64, size)})
	im.byName[name] = idx
	return idx
}

// SetRegion replaces the contents of a named region with a copy of data.
func (im *Image) SetRegion(name string, data []int64) {
	idx, ok := im.byName[name]
	if !ok {
		panic(fmt.Sprintf("mem: unknown region %q", name))
	}
	im.regions[idx].Words = append([]int64(nil), data...)
}

// NumRegions reports how many regions the image holds.
func (im *Image) NumRegions() int { return len(im.regions) }

// Index returns the runtime index of a named region.
func (im *Image) Index(name string) (int, bool) {
	idx, ok := im.byName[name]
	return idx, ok
}

// Name returns the name of the region at index i.
func (im *Image) Name(i int) string { return im.regions[i].Name }

// Size returns the word count of region i.
func (im *Image) Size(i int) int { return len(im.regions[i].Words) }

// Words returns the backing slice of region i. Callers must not resize it.
func (im *Image) Words(i int) []int64 { return im.regions[i].Words }

// WordsByName returns the backing slice of the named region.
func (im *Image) WordsByName(name string) []int64 {
	idx, ok := im.byName[name]
	if !ok {
		panic(fmt.Sprintf("mem: unknown region %q", name))
	}
	return im.regions[idx].Words
}

// Load reads one word, reporting an addressing error rather than panicking
// so simulators can surface program bugs gracefully.
func (im *Image) Load(region int, addr int64) (int64, error) {
	if region < 0 || region >= len(im.regions) {
		return 0, fmt.Errorf("mem: load from unknown region %d", region)
	}
	w := im.regions[region].Words
	if addr < 0 || addr >= int64(len(w)) {
		return 0, fmt.Errorf("mem: load out of bounds: region %q addr %d size %d",
			im.regions[region].Name, addr, len(w))
	}
	return w[addr], nil
}

// Store writes one word.
func (im *Image) Store(region int, addr, val int64) error {
	if region < 0 || region >= len(im.regions) {
		return fmt.Errorf("mem: store to unknown region %d", region)
	}
	w := im.regions[region].Words
	if addr < 0 || addr >= int64(len(w)) {
		return fmt.Errorf("mem: store out of bounds: region %q addr %d size %d",
			im.regions[region].Name, addr, len(w))
	}
	w[addr] = val
	return nil
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{
		regions: make([]Region, len(im.regions)),
		byName:  make(map[string]int, len(im.byName)),
	}
	for i, r := range im.regions {
		out.regions[i] = Region{Name: r.Name, Words: append([]int64(nil), r.Words...)}
	}
	for k, v := range im.byName {
		out.byName[k] = v
	}
	return out
}

// Equal reports whether two images have identical regions and contents.
func (im *Image) Equal(other *Image) bool {
	if len(im.regions) != len(other.regions) {
		return false
	}
	for i := range im.regions {
		a, b := im.regions[i], other.regions[i]
		if a.Name != b.Name || len(a.Words) != len(b.Words) {
			return false
		}
		for j := range a.Words {
			if a.Words[j] != b.Words[j] {
				return false
			}
		}
	}
	return true
}

// Diff returns a human-readable description of up to max differing words
// between two images, for test failure messages.
func (im *Image) Diff(other *Image, max int) []string {
	var diffs []string
	if len(im.regions) != len(other.regions) {
		return []string{fmt.Sprintf("region count %d vs %d", len(im.regions), len(other.regions))}
	}
	for i := range im.regions {
		a, b := im.regions[i], other.regions[i]
		if a.Name != b.Name {
			diffs = append(diffs, fmt.Sprintf("region %d name %q vs %q", i, a.Name, b.Name))
			continue
		}
		if len(a.Words) != len(b.Words) {
			diffs = append(diffs, fmt.Sprintf("region %q size %d vs %d", a.Name, len(a.Words), len(b.Words)))
			continue
		}
		for j := range a.Words {
			if a.Words[j] != b.Words[j] {
				diffs = append(diffs, fmt.Sprintf("region %q[%d]: %d vs %d", a.Name, j, a.Words[j], b.Words[j]))
				if len(diffs) >= max {
					return diffs
				}
			}
		}
	}
	return diffs
}

// Names returns the region names in index order.
func (im *Image) Names() []string {
	names := make([]string, len(im.regions))
	for i, r := range im.regions {
		names[i] = r.Name
	}
	return names
}

// Checksum returns an order-sensitive FNV-style hash of all region contents,
// useful as a compact fingerprint in benchmark and experiment output.
func (im *Image) Checksum() uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	// Hash regions in name order so two images that only differ in
	// construction order of identical regions still disagree loudly on
	// content but not ordering accidents.
	idx := make([]int, len(im.regions))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return im.regions[idx[a]].Name < im.regions[idx[b]].Name })
	for _, i := range idx {
		r := im.regions[i]
		for _, c := range r.Name {
			mix(uint64(c))
		}
		mix(uint64(len(r.Words)))
		for _, w := range r.Words {
			mix(uint64(w))
		}
	}
	return h
}
