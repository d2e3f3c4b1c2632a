package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is the outcome of one op.
type sample struct {
	idx    int
	key    string
	lat    time.Duration
	cycles int64
	fired  int64
	err    error
}

// closedLoop runs ops first, first+1, ... on clients goroutines; each
// client sends its next op only after its previous one completed. With
// count > 0 it runs exactly count ops. Otherwise it runs for d and then
// finishes the chunk in progress: ops come in chunks of chunkLen, and
// chunkDone, when set, is called as the last op of chunk k completes, at
// that time since the loop started. It returns the samples in op order.
func closedLoop(clients, first, chunkLen, count int, d time.Duration, do func(worker, i int) sample, chunkDone func(k int, at time.Duration)) []sample {
	var mu sync.Mutex
	next, end := first, -1
	if count > 0 {
		end = first + count
	}
	completed := make(map[int]int) // chunk -> ops completed
	start := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if end < 0 && time.Since(start) >= d {
			done := next - first
			end = first + max(chunkLen, (done+chunkLen-1)/chunkLen*chunkLen)
		}
		if end >= 0 && next >= end {
			return 0, false
		}
		next++
		return next - 1, true
	}
	finished := func(i int) {
		k := (i - first) / chunkLen
		mu.Lock()
		completed[k]++
		last := completed[k] == chunkLen
		mu.Unlock()
		if last && chunkDone != nil {
			chunkDone(k, time.Since(start))
		}
	}
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				per[c] = append(per[c], do(c, i))
				finished(i)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all
}

// checkCycles fails an op whose cycle count differs from its template's
// reference pass.
func checkCycles(refs map[string]int64, key string, cycles int64) error {
	want, ok := refs[key]
	if !ok {
		return fmt.Errorf("%s: no reference cycle count", key)
	}
	if cycles != want {
		return fmt.Errorf("%s: %d cycles, reference pass %d", key, cycles, want)
	}
	return nil
}

// phaseStats summarizes a phase.
type phaseStats struct {
	ok    int
	lats  []float64 // milliseconds of the successful ops, sorted
	fired int64
}

func summarize(ss []sample) phaseStats {
	var p phaseStats
	for _, s := range ss {
		if s.err != nil {
			continue
		}
		p.ok++
		p.fired += s.fired
		p.lats = append(p.lats, float64(s.lat)/1e6)
	}
	sort.Float64s(p.lats)
	return p
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; fields restart
	// after its closing parenthesis, with state as field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// resetPeakRSS sets process pid's VmHWM back to its current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procPeakRSS returns the peak resident set size (VmHWM) of process pid
// in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
