package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"trinit"
)

// queryParams are the per-query option parameters queryOptions reads, in
// the order the fuzz target takes them.
var queryParams = []string{"k", "budget", "timeout", "mode", "explain"}

// FuzzQueryOptions drives queryOptions with arbitrary values for every
// per-query parameter. It must never panic. A malformed value is an error,
// which the query handler answers with 400 before touching the engine. An
// accepted non-default value yields exactly one option; an absent value
// and explain=1 (the default) yield none. All five together are accepted
// exactly when each is, with the options adding up.
func FuzzQueryOptions(f *testing.F) {
	f.Add("5", "100", "500ms", "incremental", "0")
	f.Add("0", "-1", "500", "Exhaustive", "2")
	f.Add("", "", "", "", "1")
	f.Add("9223372036854775808", "9223372036854775807", "-5s", "exhaustive", "")
	f.Add(" 1", "1e3", "1h2m", "INCREMENTAL", "true")
	f.Add("+3", "0x10", "0s", "\x00", "00")
	s := testServer()
	f.Fuzz(func(t *testing.T, k, budget, timeout, mode, explain string) {
		values := []string{k, budget, timeout, mode, explain}
		all := url.Values{}
		allOK, total := true, 0
		for i, name := range queryParams {
			v := values[i]
			one := url.Values{}
			one.Set(name, v)
			all.Set(name, v)
			opts, err := queryOptions(one)
			if err != nil {
				allOK = false
				if opts != nil {
					t.Fatalf("%s=%q: error %v with %d options", name, v, err, len(opts))
				}
				one.Set("q", "?x ?p ?y")
				if rec := get(t, s, "/api/query?"+one.Encode()); rec.Code != http.StatusBadRequest {
					t.Fatalf("%s=%q: handler status %d, want 400 (%v)", name, v, rec.Code, err)
				}
				continue
			}
			want := 1
			if v == "" || name == "explain" && v == "1" {
				want = 0
			}
			if len(opts) != want {
				t.Fatalf("%s=%q: %d options, want %d", name, v, len(opts), want)
			}
			total += want
		}
		opts, err := queryOptions(all)
		if (err == nil) != allOK {
			t.Fatalf("%v: combined error %v, individually accepted %v", all, err, allOK)
		}
		if err == nil && len(opts) != total {
			t.Fatalf("%v: %d options, want %d", all, len(opts), total)
		}
	})
}

// TestCompleteParamEdges pins /api/complete's parameter handling: a
// missing or empty prefix is 400, and a limit that is not a positive
// integer falls back to the default of 10.
func TestCompleteParamEdges(t *testing.T) {
	e := trinit.NewDemoEngine()
	s := New(e)
	const prefix = "A"
	body := func(path string) []trinit.Completion {
		t.Helper()
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		var comps []trinit.Completion
		if err := json.Unmarshal(rec.Body.Bytes(), &comps); err != nil {
			t.Fatal(err)
		}
		return comps
	}
	for _, path := range []string{"/api/complete", "/api/complete?prefix=", "/api/complete?limit=3"} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
	def := e.Complete(prefix, 10)
	if len(def) < 2 {
		t.Fatalf("prefix %q completes to %d terms; the edges need at least 2", prefix, len(def))
	}
	for _, limit := range []string{"", "abc", "-3", "0", "1.5", " 2"} {
		got := body("/api/complete?prefix=" + prefix + "&limit=" + url.QueryEscape(limit))
		if !reflect.DeepEqual(got, def) {
			t.Errorf("limit=%q: %v, want the default-limit %v", limit, got, def)
		}
	}
	if got := body("/api/complete?prefix=" + prefix + "&limit=1"); len(got) != 1 || got[0] != def[0] {
		t.Errorf("limit=1: %v, want [%v]", got, def[0])
	}
}
