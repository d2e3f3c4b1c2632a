package server

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goldenMetrics builds a Metrics with a fixed observation history so the
// exposition is byte-deterministic (modulo uptime, which the test
// normalizes).
func goldenMetrics() *Metrics {
	m := NewMetrics()
	m.ObserveRequest("/v1/run", 200)
	m.ObserveRequest("/v1/run", 200)
	m.ObserveRequest("/v1/run", 429)
	m.ObserveRequest("/v1/sweep", 200)
	m.ObserveRun("tyr", 1234)
	m.ObserveRun("vN", 4321)
	m.busyTotal.Add(1)
	m.ObserveCancel()
	m.ObservePanic()
	m.ObserveDuration("/v1/run", 3*time.Millisecond)
	m.ObserveDuration("/v1/run", 700*time.Millisecond)
	m.ObserveDuration("/v1/sweep", 80*time.Millisecond)
	m.ObserveStage("queue", 40*time.Microsecond)
	m.ObserveStage("run", 2*time.Millisecond)
	m.ObserveQueueWait(100 * time.Microsecond)
	m.ObserveQueueWait(12 * time.Second)
	return m
}

var uptimeLine = regexp.MustCompile(`(?m)^tyrd_uptime_seconds \d+$`)

// TestMetricsGolden pins the full Prometheus exposition byte-for-byte.
// Run with UPDATE_GOLDEN=1 to regenerate after an intentional format
// change.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := goldenMetrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := uptimeLine.ReplaceAllString(buf.String(), "tyrd_uptime_seconds 0")

	path := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestExpositionConformance checks the Prometheus text-format contract:
// every sample belongs to a family that declared # HELP and # TYPE before
// its first sample, histogram buckets are cumulative and end at +Inf with
// the +Inf bucket equal to _count, and every value parses.
func TestExpositionConformance(t *testing.T) {
	var buf bytes.Buffer
	if _, err := goldenMetrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	help := map[string]bool{}
	typ := map[string]string{}
	samples := map[string][]string{} // family -> sample lines in order

	for ln, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			help[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typ[parts[2]] = parts[3]
		case line == "":
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no sample value: %q", ln+1, line)
			}
			name, value := line[:sp], line[sp+1:]
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("line %d: bad value %q", ln+1, value)
			}
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name && typ[base] == "histogram" {
					family = base
				}
			}
			samples[family] = append(samples[family], line)
		}
	}

	for family := range samples {
		if !help[family] {
			t.Errorf("family %s has samples but no # HELP", family)
		}
		if typ[family] == "" {
			t.Errorf("family %s has samples but no # TYPE", family)
		}
	}
	for family, kind := range typ {
		if !help[family] {
			t.Errorf("family %s has # TYPE but no # HELP", family)
		}
		if kind != "histogram" {
			continue
		}
		// Check each labeled series: cumulative buckets, +Inf last,
		// +Inf == _count.
		series := map[string][]int64{} // label prefix (sans le) -> bucket counts
		counts := map[string]int64{}
		for _, line := range samples[family] {
			sp := strings.LastIndexByte(line, ' ')
			name, value := line[:sp], line[sp+1:]
			switch {
			case strings.HasPrefix(name, family+"_bucket"):
				key := leStripped(name)
				v, _ := strconv.ParseInt(value, 10, 64)
				prev := series[key]
				if len(prev) > 0 && v < prev[len(prev)-1] {
					t.Errorf("%s: bucket counts not cumulative: %q", family, line)
				}
				series[key] = append(series[key], v)
				if strings.Contains(name, `le="+Inf"`) {
					counts[key+"#inf"] = v
				}
			case strings.HasPrefix(name, family+"_count"):
				v, _ := strconv.ParseInt(value, 10, 64)
				counts[labelsOf(name)+"#count"] = v
			}
		}
		for key := range series {
			inf, okInf := counts[key+"#inf"]
			cnt, okCnt := counts[key+"#count"]
			if !okInf {
				t.Errorf("%s series %q: no +Inf bucket", family, key)
			}
			if !okCnt {
				t.Errorf("%s series %q: no _count sample", family, key)
			}
			if okInf && okCnt && inf != cnt {
				t.Errorf("%s series %q: +Inf bucket %d != count %d", family, key, inf, cnt)
			}
		}
	}
}

// leStripped reduces a _bucket sample name to its non-le label identity.
func leStripped(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	labels := strings.TrimSuffix(name[i+1:], "}")
	var kept []string
	for _, l := range strings.Split(labels, ",") {
		if l != "" && !strings.HasPrefix(l, "le=") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, ",")
}

// labelsOf extracts a sample name's label list ("" when unlabeled).
func labelsOf(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// TestHistogramBuckets pins the bucket placement semantics: le is
// inclusive, out-of-range observations land in +Inf, and the sum is the
// exact total in seconds.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(1 * time.Millisecond)   // exactly the 0.001 bound: le is inclusive
	h.Observe(3 * time.Millisecond)   // -> le 0.005
	h.Observe(20 * time.Second)       // past every bound -> +Inf
	h.Observe(999 * time.Microsecond) // -> le 0.001

	cum, count, sum := h.snapshot()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if got := float64(1*time.Millisecond+3*time.Millisecond+20*time.Second+999*time.Microsecond) / 1e9; sum != got {
		t.Errorf("sum = %v, want %v", sum, got)
	}
	wantAt := func(boundIdx int, want int64) {
		if cum[boundIdx] != want {
			t.Errorf("cumulative bucket %d = %d, want %d", boundIdx, cum[boundIdx], want)
		}
	}
	wantAt(0, 2)          // le 0.001: the 1ms and 999us observations
	wantAt(1, 3)          // le 0.005 adds the 3ms observation
	wantAt(len(cum)-2, 3) // le 10 still excludes the 20s observation
	wantAt(len(cum)-1, 4) // +Inf catches it
	if len(cum) != len(DefaultLatencyBounds)+1 {
		t.Fatalf("bucket count %d, want %d", len(cum), len(DefaultLatencyBounds)+1)
	}
}
