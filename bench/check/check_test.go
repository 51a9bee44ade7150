package check

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"trinit/bench/workload"
)

const (
	goodJSON = `{"query":"q","answers":[{"Bindings":{"x":"Ada"},"Score":0.5,"Explanation":{}},{"Bindings":{"x":"Bob"},"Score":0.25,"Explanation":{}}],"metrics":{}}`
	goodSSE  = "event: provisional\ndata: {\"bindings\":{\"x\":\"Bob\"},\"score\":0.25}\n\n" +
		"event: answer\ndata: {\"rank\":1,\"bindings\":{\"x\":\"Ada\"},\"score\":0.5}\n\n" +
		"event: answer\ndata: {\"rank\":2,\"bindings\":{\"x\":\"Bob\"},\"score\":0.25}\n\n" +
		"event: done\ndata: {\"answers\":2,\"metrics\":{}}\n\n"
)

var oracle = Oracle{"q": {
	{Bindings: map[string]string{"x": "Ada"}, Score: 0.5},
	{Bindings: map[string]string{"x": "Bob"}, Score: 0.25},
}}

// serve answers every request the way the case says the server misbehaves.
func serve(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	return s.URL
}

func body(contentType, text string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		fmt.Fprint(w, text)
	}
}

func TestEveryFailureIsCountedAndKeptOutOfThroughput(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    Outcome
	}{
		{"correct JSON response", body("application/json", goodJSON), OK},
		{"correct stream", body("text/event-stream", goodSSE), OK},
		{"tampered score", body("application/json", `{"answers":[{"Bindings":{"x":"Ada"},"Score":0.5},{"Bindings":{"x":"Bob"},"Score":0.2500001}]}`), Mismatch},
		{"tampered order", body("application/json", `{"answers":[{"Bindings":{"x":"Bob"},"Score":0.25},{"Bindings":{"x":"Ada"},"Score":0.5}]}`), Mismatch},
		{"missing answer", body("application/json", `{"answers":[{"Bindings":{"x":"Ada"},"Score":0.5}]}`), Mismatch},
		{"tampered stream binding", body("text/event-stream",
			"event: answer\ndata: {\"rank\":1,\"bindings\":{\"x\":\"Eve\"},\"score\":0.5}\n\nevent: answer\ndata: {\"rank\":2,\"bindings\":{\"x\":\"Bob\"},\"score\":0.25}\n\nevent: done\ndata: {\"answers\":2}\n\n"), Mismatch},
		{"shed by admission", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
		}, Shed},
		{"server error", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) }, Status},
		{"partial result", body("application/json", `{"answers":[{"Bindings":{"x":"Ada"},"Score":0.5}],"partial":true,"partial_reason":"timeout"}`), Partial},
		{"partial stream", body("text/event-stream",
			"event: answer\ndata: {\"rank\":1,\"bindings\":{\"x\":\"Ada\"},\"score\":0.5}\n\nevent: done\ndata: {\"answers\":1,\"partial\":true}\n\n"), Partial},
		{"stream cut before done", body("text/event-stream",
			"event: answer\ndata: {\"rank\":1,\"bindings\":{\"x\":\"Ada\"},\"score\":0.5}\n\n"), Malformed},
		{"not JSON", body("application/json", `<html>`), Malformed},
		{"dropped connection", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, Transport},
		{"connection cut mid-body", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "1000")
			fmt.Fprint(w, goodJSON[:40])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}, Transport},
	}
	var tally Tally
	var buf bytes.Buffer
	wantOK := 0
	for _, c := range cases {
		base := serve(t, c.handler)
		f := oracle.Fetch(http.DefaultClient, base, workload.Request{Path: "/api/query", Query: "q", Oracle: true}, &buf)
		if f.Outcome != c.want {
			t.Errorf("%s: outcome %s, want %s", c.name, f.Outcome, c.want)
		}
		if (f.Outcome == OK) != !f.First.IsZero() {
			t.Errorf("%s: first-answer time set = %v on outcome %s", c.name, !f.First.IsZero(), f.Outcome)
		}
		if f.Outcome == OK && f.First.After(f.End) {
			t.Errorf("%s: first answer after the end of the response", c.name)
		}
		tally.Add(f.Outcome, c.name)
		if c.want == OK {
			wantOK++
		}
	}
	if tally.Attempted() != len(cases) || tally.Succeeded() != wantOK || tally.Failed() != len(cases)-wantOK {
		t.Errorf("tally: attempted %d succeeded %d failed %d, want %d %d %d",
			tally.Attempted(), tally.Succeeded(), tally.Failed(), len(cases), wantOK, len(cases)-wantOK)
	}
	if tally.FirstFailure == "" {
		t.Error("tally kept no description of the first failure")
	}
}

func TestUncheckedRequestsStillNeedACompleteResponse(t *testing.T) {
	var buf bytes.Buffer
	req := workload.Request{Path: "/api/query", Query: "anything"}
	tampered := serve(t, body("application/json", `{"answers":[{"Bindings":{"x":"Eve"},"Score":1}]}`))
	if f := oracle.Fetch(http.DefaultClient, tampered, req, &buf); f.Outcome != OK {
		t.Errorf("unchecked request judged against the oracle: %s", f.Outcome)
	}
	partial := serve(t, body("application/json", `{"answers":[],"partial":true}`))
	if f := oracle.Fetch(http.DefaultClient, partial, req, &buf); f.Outcome != Partial {
		t.Errorf("unchecked partial response passed: %s", f.Outcome)
	}
	empty := serve(t, body("application/json", `{"answers":[]}`))
	if f := oracle.Fetch(http.DefaultClient, empty, req, &buf); f.Outcome != OK || !f.First.IsZero() {
		t.Errorf("empty ranking: outcome %s, first answer set %v; want ok without a first answer", f.Outcome, !f.First.IsZero())
	}
}

func TestTallyMerge(t *testing.T) {
	var a, b Tally
	a.Add(OK, "")
	b.Add(Shed, "q1")
	b.Add(OK, "")
	a.Merge(b)
	if a.Attempted() != 3 || a.Failed() != 1 || a.By[Shed] != 1 || a.FirstFailure != "shed: q1" {
		t.Errorf("merged tally %+v", a)
	}
}
