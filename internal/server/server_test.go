package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trinit"
)

func testServer() *Server {
	return New(trinit.NewDemoEngine())
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestQueryEndpoint(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/query?q="+escaped("AlbertEinstein hasAdvisor ?x"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Bindings["x"] != "AlfredKleiner" {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	if len(resp.Notices) == 0 {
		t.Error("no notices for inverted query")
	}
	if resp.Metrics.RewritesTotal == 0 {
		t.Error("metrics missing")
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s := testServer()
	if rec := get(t, s, "/api/query"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d", rec.Code)
	}
	if rec := get(t, s, "/api/query?q="+escaped("broken ' query")); rec.Code != http.StatusBadRequest {
		t.Errorf("bad query: status %d", rec.Code)
	}
}

// TestQueryParallelismParam: parallelism= is not a query parameter, so
// like any unknown parameter it is ignored — the request answers 200
// with the same answers as the request without it.
func TestQueryParallelismParam(t *testing.T) {
	s := testServer()
	q := escaped("AlbertEinstein hasAdvisor ?x")
	answers := func(path string) string {
		t.Helper()
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, rec.Code, rec.Body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(resp.Answers)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := answers("/api/query?q=" + q)
	if got := answers("/api/query?q=" + q + "&parallelism=4"); got != want {
		t.Fatalf("parallelism=4 answers differ\n got:  %s\n want: %s", got, want)
	}
}

func TestCompleteEndpoint(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/complete?prefix=Albert&limit=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var comps []trinit.Completion
	if err := json.Unmarshal(rec.Body.Bytes(), &comps); err != nil {
		t.Fatal(err)
	}
	if len(comps) == 0 || comps[0].Text != "AlbertEinstein" {
		t.Fatalf("completions = %v", comps)
	}
	if rec := get(t, s, "/api/complete"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing prefix: status %d", rec.Code)
	}
	// Unknown prefix returns an empty array, not null.
	rec = get(t, s, "/api/complete?prefix=Zzzz")
	if strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("empty completions = %q", rec.Body.String())
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var stats trinit.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.KGTriples != 8 || stats.XKGTriples != 4 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRulesEndpoint(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/rules")
	var rules []trinit.RuleSpec
	if err := json.Unmarshal(rec.Body.Bytes(), &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("rules = %d", len(rules))
	}

	// Add a user-defined rule via POST, as the demo supports.
	body := strings.NewReader(`{"id":"user1","rule":"?x diedIn ?y => ?x 'passed away in' ?y","weight":0.6}`)
	req := httptest.NewRequest(http.MethodPost, "/api/rules", body)
	recPost := httptest.NewRecorder()
	s.ServeHTTP(recPost, req)
	if recPost.Code != http.StatusCreated {
		t.Fatalf("POST status = %d: %s", recPost.Code, recPost.Body)
	}
	rec = get(t, s, "/api/rules")
	if err := json.Unmarshal(rec.Body.Bytes(), &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("rules after POST = %d", len(rules))
	}

	// Invalid rule rejected.
	req = httptest.NewRequest(http.MethodPost, "/api/rules", strings.NewReader(`{"id":"bad","rule":"no arrow","weight":0.5}`))
	recPost = httptest.NewRecorder()
	s.ServeHTTP(recPost, req)
	if recPost.Code != http.StatusBadRequest {
		t.Errorf("invalid rule POST status = %d", recPost.Code)
	}

	// Unsupported method.
	req = httptest.NewRequest(http.MethodPatch, "/api/rules", nil)
	recPost = httptest.NewRecorder()
	s.ServeHTTP(recPost, req)
	if recPost.Code != http.StatusMethodNotAllowed {
		t.Errorf("PATCH status = %d", recPost.Code)
	}
}

func TestUserRuleAffectsQueries(t *testing.T) {
	s := testServer()
	// Before the custom rule, a 'housed in'-style query via a fresh
	// predicate yields nothing.
	rec := get(t, s, "/api/query?q="+escaped("IAS basedIn ?x"))
	var resp QueryResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Answers) != 0 {
		t.Fatalf("unexpected answers before rule: %+v", resp.Answers)
	}
	body := strings.NewReader(`{"id":"user-basedin","rule":"?x basedIn ?y => ?x 'housed in' ?y","weight":0.9}`)
	req := httptest.NewRequest(http.MethodPost, "/api/rules", body)
	recPost := httptest.NewRecorder()
	s.ServeHTTP(recPost, req)
	if recPost.Code != http.StatusCreated {
		t.Fatalf("rule POST failed: %s", recPost.Body)
	}
	rec = get(t, s, "/api/query?q="+escaped("IAS basedIn ?x"))
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Answers) != 1 || resp.Answers[0].Bindings["x"] != "PrincetonUniversity" {
		t.Fatalf("answers after rule = %+v", resp.Answers)
	}
}

func TestIndexPage(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "TriniT") {
		t.Error("index page missing title")
	}
	if rec := get(t, s, "/nosuchpage"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
}

func escaped(q string) string {
	r := strings.NewReplacer(" ", "%20", "'", "%27", "?", "%3F", "{", "%7B", "}", "%7D", ";", "%3B")
	return r.Replace(q)
}

func TestAskEndpoint(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/ask?q="+escaped("Who was the advisor of Albert Einstein?"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp AskResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Translated != "AlbertEinstein hasAdvisor ?a" {
		t.Fatalf("translated = %q", resp.Translated)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Bindings["a"] != "AlfredKleiner" {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	if rec := get(t, s, "/api/ask"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: %d", rec.Code)
	}
	if rec := get(t, s, "/api/ask?q="+escaped("gibberish beyond templates")); rec.Code != http.StatusBadRequest {
		t.Errorf("untranslatable question: %d", rec.Code)
	}
}

func TestQueryTraceParam(t *testing.T) {
	s := testServer()
	q := escaped("AlbertEinstein hasAdvisor ?x")
	var resp QueryResponse
	rec := get(t, s, "/api/query?q="+q)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) != 0 {
		t.Fatalf("trace included without trace=1: %v", resp.Trace)
	}
	rec = get(t, s, "/api/query?trace=1&q="+q)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("trace missing with trace=1")
	}
}

func TestRuleDeletion(t *testing.T) {
	s := testServer()
	req := httptest.NewRequest(http.MethodDelete, "/api/rules?id=fig4-4", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE status = %d: %s", rec.Code, rec.Body)
	}
	var rules []trinit.RuleSpec
	recGet := get(t, s, "/api/rules")
	if err := json.Unmarshal(recGet.Body.Bytes(), &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules after delete = %d, want 3", len(rules))
	}
	// Deleting again: not found.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/rules?id=fig4-4", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("second DELETE status = %d", rec.Code)
	}
	// Missing id.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/rules", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("DELETE without id status = %d", rec.Code)
	}
}

// sseEvent is one parsed Server-Sent Event block.
type sseEvent struct {
	name string
	data map[string]any
}

// parseSSE splits a text/event-stream body into its events.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(strings.TrimSpace(body), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
					t.Fatalf("bad event data %q: %v", line, err)
				}
			}
		}
		if ev.name == "" {
			t.Fatalf("event block without name: %q", block)
		}
		out = append(out, ev)
	}
	return out
}

// TestServerQueryStream is the SSE contract: on a multi-rewrite demo
// query the stream delivers at least one provisional event, then the
// final ranked answers, and always terminates with a done event.
func TestServerQueryStream(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/query/stream?q="+escaped("AlbertEinstein hasAdvisor ?x"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := parseSSE(t, rec.Body.String())
	if len(events) < 3 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	if last := events[len(events)-1]; last.name != "done" {
		t.Fatalf("terminal event = %q, want done", last.name)
	}
	order := map[string]int{"provisional": 0, "answer": 1, "done": 2}
	phase, provisional, answers := 0, 0, 0
	for i, ev := range events {
		p, ok := order[ev.name]
		if !ok {
			t.Fatalf("unknown event %q", ev.name)
		}
		if p < phase {
			t.Fatalf("event %d (%s) out of order", i, ev.name)
		}
		phase = p
		switch ev.name {
		case "provisional":
			provisional++
		case "answer":
			answers++
			if rank := int(ev.data["rank"].(float64)); rank != answers {
				t.Fatalf("answer rank = %d, want %d", rank, answers)
			}
		case "done":
			if i != len(events)-1 {
				t.Fatalf("done event at position %d of %d", i, len(events))
			}
			if int(ev.data["answers"].(float64)) != answers {
				t.Fatalf("done reports %v answers, stream had %d", ev.data["answers"], answers)
			}
			if _, hasErr := ev.data["error"]; hasErr {
				t.Fatalf("done event carries an error: %v", ev.data["error"])
			}
		}
	}
	if provisional == 0 {
		t.Fatal("no provisional event before done")
	}
	if answers == 0 {
		t.Fatal("no final answer events")
	}
}

func TestServerQueryStreamParseError(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/query/stream?q="+escaped("broken ' query"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q, want a plain JSON error", ct)
	}
	rec = get(t, s, "/api/query/stream")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing q: status = %d, want 400", rec.Code)
	}
}

// TestServerErrorStatusMapping pins the typed-error → HTTP status map:
// parse errors stay 400, an unfrozen engine is 503 (not ready), and the
// per-request timeout degrades to a 200 partial result, not an error.
func TestServerErrorStatusMapping(t *testing.T) {
	if rec := get(t, testServer(), "/api/query?q="+escaped("broken ' query")); rec.Code != http.StatusBadRequest {
		t.Fatalf("parse error status = %d, want 400", rec.Code)
	}
	unfrozen := New(trinit.New(nil))
	if rec := get(t, unfrozen, "/api/query?q="+escaped("?x bornIn ?y")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unfrozen engine status = %d, want 503", rec.Code)
	}
	if rec := get(t, unfrozen, "/api/ask?q="+escaped("Who advised Einstein?")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unfrozen engine ask status = %d, want 503", rec.Code)
	}

	rec := get(t, testServer(), "/api/query?timeout=1ns&q="+escaped("?x ?p ?y"))
	if rec.Code != http.StatusOK {
		t.Fatalf("timed-out query status = %d, want 200 with partial flag", rec.Code)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("timed-out query response not marked partial")
	}

	// /api/ask degrades identically on its timeout parameter.
	rec = get(t, testServer(), "/api/ask?timeout=1ns&q="+escaped("Who was the advisor of Albert Einstein?"))
	if rec.Code != http.StatusOK {
		t.Fatalf("timed-out ask status = %d, want 200 with partial flag", rec.Code)
	}
	var ask AskResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ask); err != nil {
		t.Fatal(err)
	}
	if !ask.Partial {
		t.Fatal("timed-out ask response not marked partial")
	}
}

// TestServerQueryParams covers the per-query option parameters.
func TestServerQueryParams(t *testing.T) {
	s := testServer()
	rec := get(t, s, "/api/query?k=1&q="+escaped("?x ?p ?y"))
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("k=1 returned %d answers", len(resp.Answers))
	}
	rec = get(t, s, "/api/query?explain=0&q="+escaped("AlbertEinstein hasAdvisor ?x"))
	resp = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) == 0 {
		t.Fatal("no answers")
	}
	for i, a := range resp.Answers {
		if a.Explanation.Text != "" {
			t.Fatalf("answer %d carries an explanation under explain=0", i)
		}
	}
	rec = get(t, s, "/api/query?mode=exhaustive&q="+escaped("AlbertEinstein hasAdvisor ?x"))
	resp = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics.RewritesSkipped != 0 {
		t.Fatalf("exhaustive mode skipped %d rewrites", resp.Metrics.RewritesSkipped)
	}

	// Malformed option values are rejected, not silently dropped.
	for _, path := range []string{
		"/api/query?k=abc&q=" + escaped("?x ?p ?y"),
		"/api/query?k=0&q=" + escaped("?x ?p ?y"),
		"/api/query?timeout=500&q=" + escaped("?x ?p ?y"), // missing unit
		"/api/query?mode=Exhaustive&q=" + escaped("?x ?p ?y"),
		"/api/query/stream?timeout=oops&q=" + escaped("?x ?p ?y"),
		"/api/ask?k=-1&q=" + escaped("Who advised Einstein?"),
	} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, rec.Code)
		}
	}
}
