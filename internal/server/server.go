// Package server exposes a TriniT engine over HTTP with a small embedded
// demo UI — the reproduction of the §5 demonstration setting: posing mixed
// resource/token triple-pattern queries, browsing ranked answers with
// explanations, registering user-defined relaxation rules, and
// auto-completing input.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"trinit"
)

// Server wraps an engine with HTTP handlers. Handlers run concurrently —
// one goroutine per request, as net/http does by default — since the
// frozen engine's read path (Query, Ask, Complete, Stats) takes no
// engine-wide lock; concurrent requests share the match-list cache.
//
// The engine slot is an atomic pointer so the daemon can start its
// listener before recovery finishes: NewLoading serves probes (and 503s
// API traffic with a Retry-After) until Publish installs the recovered
// engine.
type Server struct {
	engine atomic.Pointer[trinit.Engine]
	mux    *http.ServeMux
}

// New builds a server around a frozen engine.
func New(e *trinit.Engine) *Server {
	s := NewLoading()
	s.Publish(e)
	return s
}

// NewLoading builds a server with no engine yet — the daemon's
// listen-first mode while Open replays the data directory. Until
// Publish, /healthz reports the process alive, /readyz reports
// "loading" with 503 + Retry-After, and API requests are rejected the
// same way.
func NewLoading() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/query", s.handleQuery)
	s.mux.HandleFunc("/api/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("/api/ask", s.handleAsk)
	s.mux.HandleFunc("/api/complete", s.handleComplete)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/rules", s.handleRules)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// Publish installs the engine, atomically flipping the server from
// loading to serving. Requests already past the loading check keep the
// nil-engine 503 they were routed to; new ones see the engine.
func (s *Server) Publish(e *trinit.Engine) { s.engine.Store(e) }

// eng returns the published engine, or nil while loading. Handlers past
// the ServeHTTP loading gate may assume non-nil: the slot is write-once.
func (s *Server) eng() *trinit.Engine { return s.engine.Load() }

// errLoading is the 503 body served while recovery is still running.
var errLoading = errors.New("loading: the engine is still recovering from disk")

// ServeHTTP implements http.Handler. While no engine is published, only
// the operational endpoints and the UI pass through; API requests are
// told to come back (503 + Retry-After) rather than being conflated
// with "not frozen".
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.eng() == nil {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics", "/":
		default:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errLoading)
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// StatusClientClosedRequest is the nginx-convention status for requests
// abandoned by the client before the engine finished; there is no
// standard-library constant for 499.
const StatusClientClosedRequest = 499

// statusFor maps the engine's typed sentinel errors to HTTP status
// codes; the engine only ever surfaces input-shaped failures beyond
// these, so the fallback is 400 rather than a blanket 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, trinit.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, trinit.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, trinit.ErrParse):
		return http.StatusBadRequest
	case errors.Is(err, trinit.ErrNotFrozen):
		return http.StatusServiceUnavailable
	case errors.Is(err, trinit.ErrFrozen):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, trinit.ErrCanceled), errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, trinit.ErrBudgetExhausted):
		// Connected clients get 200 + partial (degradedPartial); this is
		// only reached when the client also went away mid-degradation.
		return StatusClientClosedRequest
	}
	return http.StatusBadRequest
}

// writeQueryError reports a failed query, attaching a Retry-After hint
// (the admission controller's predicted wait, at least 1s) when the
// engine shed the query under load.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		retry := time.Second
		if avg := s.eng().ServingStats().Admission.AvgWait; avg > retry {
			retry = avg.Round(time.Second)
		}
		secs := int(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, status, err)
}

// degradedPartial reports whether an engine error should degrade to a
// 200 response with the partial flag instead of an error status: the
// query was cut short by its own timeout parameter or its cost budget
// while the client is still connected and a partial result is in hand.
func degradedPartial(r *http.Request, res *trinit.Result, err error) bool {
	if res == nil || r.Context().Err() != nil {
		return false
	}
	return errors.Is(err, trinit.ErrCanceled) || errors.Is(err, trinit.ErrBudgetExhausted)
}

// partialReason names why a degraded result is partial, for the
// response's partial_reason field: "budget" (cost budget exhausted) or
// "timeout" (the query's own deadline).
func partialReason(err error) string {
	switch {
	case errors.Is(err, trinit.ErrBudgetExhausted):
		return "budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case err != nil:
		return "canceled"
	}
	return ""
}

// queryOptions builds the per-query options from request parameters:
// k=<n> caps the answer count, timeout=<duration> bounds processing
// (e.g. 500ms; the request context still applies), mode=incremental|
// exhaustive overrides the engine strategy, budget=<n> caps the join
// branches explored, and explain=0 skips eager explanation rendering.
// Malformed values are an error — silently dropping a mistyped timeout
// would run the query unbounded while the client believes its limit was
// applied.
func queryOptions(q url.Values) ([]trinit.QueryOption, error) {
	var opts []trinit.QueryOption
	if ks := q.Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad k parameter %q: want a positive integer", ks)
		}
		opts = append(opts, trinit.WithK(n))
	}
	if ts := q.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad timeout parameter %q: want a positive duration like 500ms", ts)
		}
		opts = append(opts, trinit.WithTimeout(d))
	}
	switch mode := q.Get("mode"); mode {
	case "":
	case "incremental":
		opts = append(opts, trinit.WithMode(trinit.ModeIncremental))
	case "exhaustive":
		opts = append(opts, trinit.WithMode(trinit.ModeExhaustive))
	default:
		return nil, fmt.Errorf("bad mode parameter %q: want incremental or exhaustive", mode)
	}
	if bs := q.Get("budget"); bs != "" {
		n, err := strconv.ParseInt(bs, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad budget parameter %q: want a positive join-branch count", bs)
		}
		opts = append(opts, trinit.WithBudget(trinit.Budget{JoinBranches: n}))
	}
	switch explain := q.Get("explain"); explain {
	case "", "1":
	case "0":
		opts = append(opts, trinit.WithoutExplanations())
	default:
		return nil, fmt.Errorf("bad explain parameter %q: want 0 or 1", explain)
	}
	return opts, nil
}

// QueryResponse is the JSON shape of /api/query.
type QueryResponse struct {
	Query       string              `json:"query"`
	Answers     []trinit.Answer     `json:"answers"`
	Notices     []trinit.Notice     `json:"notices,omitempty"`
	Suggestions []trinit.Suggestion `json:"suggestions,omitempty"`
	Metrics     trinit.Metrics      `json:"metrics"`
	// Partial marks a result cut short by the timeout or budget
	// parameter: the answers found before the cut, not the full top-k.
	Partial bool `json:"partial,omitempty"`
	// PartialReason names what cut the query short when Partial is set:
	// "timeout", "budget", or "canceled".
	PartialReason string `json:"partial_reason,omitempty"`
	// Trace is included when the request passes trace=1 (§5: internal
	// processing steps).
	Trace []trinit.TraceEntry `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	opts, optErr := queryOptions(params)
	if optErr != nil {
		writeError(w, http.StatusBadRequest, optErr)
		return
	}
	wantTrace := params.Get("trace") == "1"
	if !wantTrace {
		// The trace is only serialized under trace=1; skip collecting
		// it at all on the common path.
		opts = append(opts, trinit.WithoutTrace())
	}
	res, err := s.eng().QueryContext(r.Context(), q, opts...)
	if err != nil && !degradedPartial(r, res, err) {
		s.writeQueryError(w, err)
		return
	}
	resp := QueryResponse{
		Query:       res.Query,
		Answers:     res.Answers,
		Notices:     res.Notices,
		Suggestions: res.Suggestions,
		Metrics:     res.Metrics,
		Partial:     res.Partial,
	}
	if res.Partial {
		resp.PartialReason = partialReason(err)
	}
	if wantTrace {
		resp.Trace = res.Trace
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamAnswer is the JSON payload of provisional and answer events on
// /api/query/stream.
type streamAnswer struct {
	Rank     int               `json:"rank,omitempty"`
	Bindings map[string]string `json:"bindings"`
	Score    float64           `json:"score"`
}

// streamDone is the JSON payload of the terminal done event.
type streamDone struct {
	Answers       int             `json:"answers"`
	Partial       bool            `json:"partial,omitempty"`
	PartialReason string          `json:"partial_reason,omitempty"`
	Error         string          `json:"error,omitempty"`
	Metrics       *trinit.Metrics `json:"metrics,omitempty"`
}

// handleQueryStream is /api/query/stream: Server-Sent Events over the
// engine's streaming query API. The stream carries zero or more
// `provisional` events (answers admitted into the running top-k), one
// `answer` event per final ranked answer, and always terminates with a
// `done` event — also on cancellation and partial results. Errors
// detected before the first event (e.g. parse errors) are reported as a
// plain JSON error with the proper status instead of a stream.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	started := false
	sendEvent := func(event string, v any) error {
		if !started {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}

	// Stream events carry only rank/bindings/score, so eager explanation
	// rendering and trace collection would be pure waste on this
	// endpoint; clients that need provenance re-query with /api/query.
	opts, optErr := queryOptions(params)
	if optErr != nil {
		writeError(w, http.StatusBadRequest, optErr)
		return
	}
	opts = append(opts, trinit.WithoutExplanations(), trinit.WithoutTrace())
	res, err := s.eng().QueryStream(r.Context(), q, func(ev trinit.AnswerEvent) error {
		// A dropped client surfaces here before any doomed write: the
		// request context is cancelled by the server on disconnect, and
		// returning its error stops the underlying query at the
		// processor's next poll instead of evaluating — and buffering
		// events — for a reader that is gone.
		if err := r.Context().Err(); err != nil {
			return err
		}
		switch ev.Type {
		case trinit.EventProvisional, trinit.EventAnswer:
			return sendEvent(ev.Type.String(), streamAnswer{
				Rank:     ev.Rank,
				Bindings: ev.Answer.Bindings,
				Score:    ev.Answer.Score,
			})
		case trinit.EventDone:
			// Deferred below so the done payload can carry the final
			// answer count even on engine-side cancellation.
			return nil
		}
		return nil
	}, opts...)

	if err != nil && !started && !errors.Is(err, trinit.ErrCanceled) && !errors.Is(err, trinit.ErrBudgetExhausted) && !errors.Is(err, context.Canceled) {
		// Nothing streamed yet and not a mid-flight degradation:
		// report a plain error response with the right status.
		s.writeQueryError(w, err)
		return
	}
	done := streamDone{}
	if res != nil {
		done.Answers = len(res.Answers)
		done.Partial = res.Partial
		if res.Partial {
			done.PartialReason = partialReason(err)
		}
		m := res.Metrics
		done.Metrics = &m
	}
	if err != nil {
		done.Error = err.Error()
	}
	_ = sendEvent("done", done)
}

// AskResponse is the JSON shape of /api/ask: a QueryResponse plus the
// query the question was translated into.
type AskResponse struct {
	Question   string `json:"question"`
	Translated string `json:"translated"`
	QueryResponse
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	question := params.Get("q")
	if question == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	opts, optErr := queryOptions(params)
	if optErr != nil {
		writeError(w, http.StatusBadRequest, optErr)
		return
	}
	// The ask response never serializes a trace.
	opts = append(opts, trinit.WithoutTrace())
	res, translated, err := s.eng().AskContext(r.Context(), question, opts...)
	if err != nil && !degradedPartial(r, res, err) {
		s.writeQueryError(w, err)
		return
	}
	qr := QueryResponse{
		Query:       res.Query,
		Answers:     res.Answers,
		Notices:     res.Notices,
		Suggestions: res.Suggestions,
		Metrics:     res.Metrics,
		Partial:     res.Partial,
	}
	if res.Partial {
		qr.PartialReason = partialReason(err)
	}
	writeJSON(w, http.StatusOK, AskResponse{
		Question:      question,
		Translated:    translated,
		QueryResponse: qr,
	})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	if prefix == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing prefix parameter"))
		return
	}
	limit := 10
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if n, err := strconv.Atoi(ls); err == nil && n > 0 {
			limit = n
		}
	}
	comps := s.eng().Complete(prefix, limit)
	if comps == nil {
		comps = []trinit.Completion{}
	}
	writeJSON(w, http.StatusOK, comps)
}

// StatsResponse is the JSON shape of /api/stats: the XKG summary plus
// query-pipeline (match-list cache and planner) statistics. Embedding
// keeps the original flat field layout for existing clients.
type StatsResponse struct {
	trinit.Stats
	Cache trinit.CacheStats `json:"cache"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Stats: s.eng().Stats(),
		Cache: s.eng().CacheStats(),
	})
}

// ruleRequest is the POST body of /api/rules.
type ruleRequest struct {
	ID     string  `json:"id"`
	Rule   string  `json:"rule"`
	Weight float64 `json:"weight"`
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rules := s.eng().Rules()
		if rules == nil {
			rules = []trinit.RuleSpec{}
		}
		writeJSON(w, http.StatusOK, rules)
	case http.MethodPost:
		var req ruleRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := s.eng().AddRule(req.ID, req.Rule, req.Weight); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "rule added"})
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		if id == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("missing id parameter"))
			return
		}
		if !s.eng().RemoveRule(id) {
			writeError(w, http.StatusNotFound, fmt.Errorf("no rule with id %q", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "rule removed"})
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

// indexHTML is the embedded demo UI: a query box with auto-completion, a
// rule editor, ranked answers with expandable explanations.
const indexHTML = `<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>TriniT — Exploratory Querying of Extended Knowledge Graphs</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 1.5rem; }
textarea, input { width: 100%; font-family: ui-monospace, monospace; font-size: 0.95rem; padding: .4rem; box-sizing: border-box; }
button { margin-top: .5rem; padding: .4rem 1rem; }
.answer { border: 1px solid #ccc; border-radius: 6px; padding: .6rem .8rem; margin: .5rem 0; }
.score { color: #666; font-size: .85rem; }
pre { background: #f6f6f6; padding: .6rem; overflow-x: auto; font-size: .8rem; }
.notice { background: #fff8e0; border: 1px solid #e0d090; padding: .4rem .6rem; margin: .4rem 0; border-radius: 4px; }
.sugg { background: #e8f4ff; border: 1px solid #a8c8e8; padding: .4rem .6rem; margin: .4rem 0; border-radius: 4px; }
#completions { color: #555; font-size: .85rem; }
</style>
</head>
<body>
<h1>TriniT &mdash; exploratory querying of extended knowledge graphs</h1>
<p>Triple patterns, one per line or ';'-separated. Quoted strings are textual tokens,
bare names are KG resources, ?x are variables. Example:
<code>AlbertEinstein affiliation ?x ; ?x member IvyLeague</code></p>
<textarea id="q" rows="3">AlbertEinstein affiliation ?x ; ?x member IvyLeague</textarea>
<div id="completions"></div>
<button onclick="runQuery()">Run query</button>
<h2>Add relaxation rule</h2>
<input id="ruleid" placeholder="rule id">
<input id="ruletext" placeholder="?x affiliation ?y =&gt; ?x 'lectured at' ?y">
<input id="ruleweight" placeholder="weight (0..1)" value="0.7">
<button onclick="addRule()">Add rule</button>
<h2>Results</h2>
<div id="out"></div>
<script>
async function runQuery() {
  const q = document.getElementById('q').value;
  const res = await fetch('/api/query?q=' + encodeURIComponent(q));
  const data = await res.json();
  const out = document.getElementById('out');
  out.innerHTML = '';
  if (data.error) { out.textContent = 'error: ' + data.error; return; }
  (data.notices || []).forEach(n => {
    const d = document.createElement('div'); d.className = 'notice';
    d.textContent = n.Message; out.appendChild(d);
  });
  (data.suggestions || []).forEach(s => {
    const d = document.createElement('div'); d.className = 'sugg';
    d.textContent = 'suggestion: replace \'' + s.Token + '\' (' + s.Position + ') with ' + s.Resource;
    out.appendChild(d);
  });
  (data.answers || []).forEach(a => {
    const d = document.createElement('div'); d.className = 'answer';
    const b = Object.entries(a.Bindings).map(([k,v]) => '?' + k + ' = ' + v).join(', ');
    d.innerHTML = '<strong>' + b + '</strong> <span class="score">score ' +
      a.Score.toFixed(4) + '</span><details><summary>explanation</summary><pre>' +
      a.Explanation.Text.replace(/</g,'&lt;') + '</pre></details>';
    out.appendChild(d);
  });
  if (!(data.answers || []).length) out.textContent += 'no answers';
}
async function addRule() {
  const body = JSON.stringify({
    id: document.getElementById('ruleid').value,
    rule: document.getElementById('ruletext').value,
    weight: parseFloat(document.getElementById('ruleweight').value),
  });
  const res = await fetch('/api/rules', {method: 'POST', body});
  const data = await res.json();
  alert(data.error || data.status);
}
document.getElementById('q').addEventListener('input', async (ev) => {
  const text = ev.target.value;
  const word = text.split(/[\s;.{}]+/).pop();
  const el = document.getElementById('completions');
  if (!word || word.length < 2 || word.startsWith('?') || word.startsWith("'")) { el.textContent = ''; return; }
  const res = await fetch('/api/complete?prefix=' + encodeURIComponent(word) + '&limit=6');
  const comps = await res.json();
  el.textContent = comps.length ? 'complete: ' + comps.map(c => c.Text).join('  ') : '';
});
</script>
</body>
</html>
`
