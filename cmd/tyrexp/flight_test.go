package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadDumpValidates checks that the load path all flight modes share
// rejects a malformed dump before anything renders it. The -id view
// indexes a record's first span, so a record without spans must not get
// that far.
func TestLoadDumpValidates(t *testing.T) {
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{
			name: "valid",
			body: `{"version":"tyr-obs/v1","requests":[{"trace_id":"a1","method":"POST","path":"/v1/run","status":200,
				"spans":[{"name":"request","parent":-1,"start_ns":0,"end_ns":10}]}]}`,
		},
		{
			name:    "no spans",
			body:    `{"version":"tyr-obs/v1","requests":[{"trace_id":"a1","method":"POST","path":"/v1/run","status":200,"spans":[]}]}`,
			wantErr: "request a1 has no spans",
		},
		{
			name:    "wrong version",
			body:    `{"version":"tyr-obs/v0","requests":[]}`,
			wantErr: "unsupported dump version",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dump.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			dump, err := loadDump(path)
			if tc.wantErr == "" {
				if err != nil || len(dump.Requests) != 1 {
					t.Fatalf("loadDump = %v, %v; want one request", dump, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("loadDump error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
