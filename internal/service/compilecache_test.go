package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdds/internal/harness"
)

// TestServiceCompileCacheSurfaces drives a scheduled run through the
// service and asserts the compile memo shows up everywhere it should —
// status, doctor, Prometheus metrics — and that nothing but the result
// journal is written to the store directory.
func TestServiceCompileCacheSurfaces(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "runs.jsonl")
	_, ts := newTestServer(t, storePath, 2)

	var raw map[string]json.RawMessage
	if code := getJSON(t, ts.URL+"/v1/status", &raw); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if _, ok := raw["compile_cache"]; !ok {
		t.Error("idle status has no compile_cache block")
	}

	req := harness.Request{App: "sar", Scheduling: true, Scale: 0.02, Seed: 7}
	var rr RunResponse
	if code := postJSON(t, ts.URL+"/v1/runs", req, &rr); code != http.StatusOK {
		t.Fatalf("run status %d (%s)", code, rr.Error)
	}

	var st StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.CompileCache.Misses != 1 || st.CompileCache.Entries != 1 {
		t.Errorf("compile cache stats = %+v, want 1 miss / 1 entry", st.CompileCache)
	}
	if st.SetupGroups != 1 {
		t.Errorf("setup groups = %d, want 1", st.SetupGroups)
	}

	var doc DoctorResponse
	if code := getJSON(t, ts.URL+"/v1/doctor", &doc); code != http.StatusOK {
		t.Fatalf("doctor %d: %+v", code, doc)
	}
	found := false
	for _, c := range doc.Checks {
		if c.Name == "compile-cache" {
			found = true
			if c.Status != "ok" {
				t.Errorf("compile-cache check = %+v", c)
			}
			if !strings.Contains(c.Detail, "1 entries") {
				t.Errorf("compile-cache detail = %q, want entry count", c.Detail)
			}
		}
	}
	if !found {
		t.Error("doctor has no compile-cache check")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"compile_cache_misses 1", "compile_cache_entries 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	// The compile memo lives in process only: the store directory holds
	// the journal and nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(storePath) {
			t.Errorf("store directory holds %q besides the journal", e.Name())
		}
	}
}
