package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trinit"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/api.golden")

const apiGolden = "testdata/api.golden"

// apiRequests lists the requests the API golden sends per workload
// query, in order: the plain query, the traced query, the query without
// eager explanations, and the SSE stream.
func apiRequests(q string) []string {
	v := url.QueryEscape(q)
	return []string{
		"/api/query?q=" + v + "&k=10",
		"/api/query?q=" + v + "&k=10&trace=1",
		"/api/query?q=" + v + "&k=10&explain=0",
		"/api/query/stream?q=" + v + "&k=10",
	}
}

// renderAPI serves the 70-query synthetic workload serially through a
// fresh server and records, per request, its status, body length and
// body SHA-256 (the bodies themselves come to about 1.5 MB), then the
// demo queries' eager explanation texts and lazy Result.Explain values
// in full. bodies maps each request path to its body, for diagnostics.
func renderAPI(t *testing.T) (out []byte, bodies map[string]string) {
	t.Helper()
	e, queries, err := trinit.NewSyntheticEngine(trinit.DefaultSyntheticConfig(), 70)
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	bodies = make(map[string]string)
	var b bytes.Buffer
	b.WriteString("## synthetic workload (status bytes sha256 path)\n")
	for _, q := range queries {
		for _, path := range apiRequests(q.Text) {
			rec := get(t, s, path)
			body := rec.Body.Bytes()
			bodies[path] = string(body)
			fmt.Fprintf(&b, "%s %d %d %x %s\n", q.ID, rec.Code, len(body), sha256.Sum256(body), path)
		}
	}

	demo := trinit.NewDemoEngine()
	for _, dq := range trinit.DemoQueries() {
		eager, err := demo.QueryContext(context.Background(), dq.Query)
		if err != nil {
			t.Fatalf("%s: %v", dq.Query, err)
		}
		lazy, err := demo.QueryContext(context.Background(), dq.Query, trinit.WithoutExplanations())
		if err != nil {
			t.Fatalf("%s: %v", dq.Query, err)
		}
		fmt.Fprintf(&b, "## demo %s: %s\n", dq.User, dq.Query)
		for i, a := range eager.Answers {
			ex, err := lazy.Explain(i)
			if err != nil {
				t.Fatalf("%s: Explain(%d): %v", dq.Query, i, err)
			}
			fmt.Fprintf(&b, "# answer %d text\n%s# answer %d explain\n%+v\n", i+1, a.Explanation.Text, i+1, ex)
		}
	}
	return b.Bytes(), bodies
}

// TestAPIGolden pins the HTTP API's output byte for byte: the /api/query
// bodies (plain, traced and without explanations) and the
// /api/query/stream bodies of the 70-query workload at k = 10, and the
// demo queries' explanations, eager and lazy, must match
// testdata/api.golden. Regenerate with go test -run TestAPIGolden -update.
func TestAPIGolden(t *testing.T) {
	got, bodies := renderAPI(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(apiGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] == wl[i] {
			continue
		}
		msg := fmt.Sprintf("output differs from %s at line %d:\n got: %s\nwant: %s", apiGolden, i+1, gl[i], wl[i])
		if f := strings.Fields(gl[i]); len(f) == 5 {
			msg += fmt.Sprintf("\nbody of %s:\n%s", f[4], bodies[f[4]])
		}
		t.Fatal(msg)
	}
	t.Fatalf("output differs from %s in length: %d lines, want %d", apiGolden, len(gl), len(wl))
}
