package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// FuzzServeRun drives the real /v1/run handler with arbitrary bodies.
func FuzzServeRun(f *testing.F) {
	fuzzServe(f, "/v1/run", []string{
		`{"app":"dmv","scale":"tiny","system":"tyr"}`,
		`{"app":"tc","scale":"tiny","system":"ordered","trace_points":16}`,
		`{"app":"smv","scale":"tiny","system":"unordered","global_tags":8,"skip_check":true}`,
		`{"app":"spmspv","scale":"tiny","system":"vN","cache":{"l1":"sets=16,ways=2,line=4,lat=1"}}`,
		`{"app":"dconv","scale":"tiny","system":"seqdf","exec":{"deadline_ms":50}}`,
		`{"source":"program \"ex\" entry main\n\nfunc main() {\n  return 42\n}\n","system":"tyr"}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","exec":{"shards":2}}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","exec":{"batch":4}}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","exec":{"batch":1}}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","issue_width":1000000000,"tags":4000000}`,
		`{"source":"program \"big\" entry main\nmem a[1000000000]\n\nfunc main() {\n  return 0\n}\n","system":"tyr"}`,
		`{"system": "tyr", "app"`,
		`{"app":"dmv","scale":"tiny","system":"tyr","timeout_ms":50}`,
	}, func(reply []byte) (string, error) {
		var rr api.RunResult
		err := json.Unmarshal(reply, &rr)
		return rr.Version, err
	})
}

// FuzzServeSweep drives the real /v1/sweep handler with arbitrary bodies.
func FuzzServeSweep(f *testing.F) {
	fuzzServe(f, "/v1/sweep", []string{
		`{"scale":"tiny","apps":["dmv"],"systems":["vN","tyr"]}`,
		`{"scale":"tiny","apps":["tc","smv"],"systems":["ordered"],"cell_start":1,"cell_count":1}`,
		`{"scale":"tiny","apps":["spmspv"],"systems":["seqdf","unordered"],"cache":{"l1":"sets=16,ways=2,line=4,lat=1"}}`,
		`{"scale":"tiny","apps":["dmv"],"systems":["tyr"],"cell_start":2}`,
		overflowSweep,
		`{"scale": "tiny", "apps"`,
		`{"scale":"tiny","apps":["dmv"],"systems":["tyr"],"exec":{"deadline_ms":50}}`,
		`{"scale":"tiny","apps":["dmv"],"systems":["tyr"],"timeout_ms":50,"exec":{"shards":2}}`,
	}, func(reply []byte) (string, error) {
		var sr api.SweepResult
		err := json.Unmarshal(reply, &sr)
		return sr.Version, err
	})
}

// overflowSweep names a cell range whose end overflows an int. The fields
// are retired, so it is a 400 on cell_start like any other cell range.
const overflowSweep = `{"scale":"tiny","apps":["dmv"],"systems":["vN","tyr"],"cell_start":1,"cell_count":9223372036854775807}`

// fuzzServe posts each fuzzed body to path on a one-worker server with a
// 1 s deadline. Whatever the body, the reply must be one of the statuses
// the API documents — never a 500, which would mean a panic or an
// unencodable reply — and must decode: a 200 through decodeOK, anything
// else as a structured ErrorBody. Once the corpus has run, closing the
// server must bring the goroutine count back to where it was before the
// server started.
func fuzzServe(f *testing.F, path string, seeds []string, decodeOK func([]byte) (version string, err error)) {
	for _, body := range seeds {
		f.Add(body)
	}
	baseline, _ := countGoroutines()
	srv := New(Config{
		Workers:        1,
		QueueDepth:     4,
		DefaultTimeout: time.Second,
		MaxTimeout:     time.Second,
		OracleMaxSteps: 1 << 20,
	})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		ts.Close()
		srv.Close()
		waitForGoroutines(f, baseline)
	})

	f.Fuzz(func(t *testing.T, body string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if version, err := decodeOK(reply); err != nil || version != api.Version {
				t.Fatalf("200 reply does not decode (%v): %s", err, reply)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var eb api.ErrorBody
			if err := json.Unmarshal(reply, &eb); err != nil || eb.Version != api.Version || eb.Error == "" {
				t.Fatalf("%d reply is not an ErrorBody (%v): %s", resp.StatusCode, err, reply)
			}
		default:
			t.Fatalf("status %d for body %q: %s", resp.StatusCode, body, reply)
		}
	})
}

// waitForGoroutines fails tb, listing every goroutine, unless the count
// settles back to baseline (from countGoroutines) within 5 s.
func waitForGoroutines(tb testing.TB, baseline int) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, stacks := countGoroutines()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			tb.Errorf("goroutines leaked: %d > baseline %d\n%s", n, baseline, stacks)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// countGoroutines collects garbage, then counts the process's goroutines
// and returns their stacks. It leaves out the os/signal watcher, which
// `go test -fuzz` starts once mid-run and which never exits.
func countGoroutines() (int, string) {
	runtime.GC()
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "os/signal.loop") {
			count++
		}
	}
	return count, string(buf)
}
