package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// FuzzServeRun drives the real /v1/run handler with arbitrary bodies under
// a short server deadline. Whatever the body, the reply must be one of the
// statuses the API documents — never a 500, which would mean a panic or an
// unencodable reply — and must decode as a RunResult (200) or a structured
// ErrorBody (everything else).
func FuzzServeRun(f *testing.F) {
	for _, body := range []string{
		`{"app":"dmv","scale":"tiny","system":"tyr"}`,
		`{"app":"tc","scale":"tiny","system":"ordered","trace_points":16}`,
		`{"app":"smv","scale":"tiny","system":"unordered","global_tags":8,"skip_check":true}`,
		`{"app":"spmspv","scale":"tiny","system":"vN","cache":{"l1":"sets=16,ways=2,line=4,lat=1"}}`,
		`{"app":"dconv","scale":"tiny","system":"seqdf","exec":{"deadline_ms":50}}`,
		`{"source":"program \"ex\" entry main\n\nfunc main() {\n  return 42\n}\n","system":"tyr"}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","exec":{"shards":2}}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","exec":{"batch":4}}`,
		`{"app":"dmv","scale":"tiny","system":"tyr","exec":{"batch":1}}`,
		`{"system": "tyr", "app"`,
	} {
		f.Add(body)
	}
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
	})

	f.Fuzz(func(t *testing.T, body string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
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
			var rr api.RunResult
			if err := json.Unmarshal(reply, &rr); err != nil || rr.Version != api.Version {
				t.Fatalf("200 reply is not a RunResult (%v): %s", err, reply)
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
