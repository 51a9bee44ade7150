// Package check is the benchmark's correctness side: it fetches one
// request, classifies the response against the exhaustive oracle, and
// keeps the failure tally behind error_rate. A request that fails any
// check has no latency and does not count towards query_qps.
package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"trinit/bench/workload"
)

// Answer is one ranked answer as the oracle and the wire both state it.
type Answer struct {
	Bindings map[string]string
	Score    float64
}

// Oracle maps query text to its expected ranking, computed by the
// exhaustive evaluator. Rankings must match exactly: same length, same
// order, equal bindings, bit-equal scores (encoding/json round-trips
// float64 exactly).
type Oracle map[string][]Answer

// Outcome classifies one request.
type Outcome uint8

const (
	OK        Outcome = iota
	Transport         // connection refused, reset or cut mid-body
	Shed              // 429 from admission control
	Status            // any other non-200
	Partial           // 200 with partial:true (timeout or budget cut)
	Malformed         // 200 whose body does not decode
	Mismatch          // ranked answers differ from the oracle
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "transport", "shed", "status", "partial", "malformed", "mismatch"}

func (o Outcome) String() string { return outcomeNames[o] }

// Tally counts request outcomes.
type Tally struct {
	By [numOutcomes]int
	// FirstFailure describes the first failed request, for the run log.
	FirstFailure string
}

// Add records one outcome; detail describes the request for the log.
func (t *Tally) Add(o Outcome, detail string) {
	t.By[o]++
	if o != OK && t.FirstFailure == "" {
		t.FirstFailure = fmt.Sprintf("%s: %s", o, detail)
	}
}

// Merge folds another tally into t.
func (t *Tally) Merge(o Tally) {
	for i, n := range o.By {
		t.By[i] += n
	}
	if t.FirstFailure == "" {
		t.FirstFailure = o.FirstFailure
	}
}

// Attempted is every request sent; Succeeded the ones that passed every
// check — the numerator of query_qps.
func (t Tally) Attempted() int {
	n := 0
	for _, c := range t.By {
		n += c
	}
	return n
}

func (t Tally) Succeeded() int { return t.By[OK] }
func (t Tally) Failed() int    { return t.Attempted() - t.By[OK] }

// Fetched is the outcome and client-side timing of one request.
type Fetched struct {
	Outcome Outcome
	// First is when the first answer became visible to the client: the
	// first complete SSE event on the stream endpoint, the first body byte
	// on the JSON endpoint. Zero when the response carried no answer.
	First time.Time
	End   time.Time
	// Bytes is the response body size.
	Bytes int
}

// Fetch sends req to the server at base and classifies the response. buf
// is the caller's reusable body buffer.
func (o Oracle) Fetch(c *http.Client, base string, req workload.Request, buf *bytes.Buffer) Fetched {
	resp, err := c.Get(base + req.Path + "?q=" + url.QueryEscape(req.Query))
	if err != nil {
		return Fetched{Outcome: Transport, End: time.Now()}
	}
	defer resp.Body.Close()
	stream := resp.Header.Get("Content-Type") == "text/event-stream"

	buf.Reset()
	var first time.Time
	for {
		buf.Grow(16 << 10)
		spare := buf.AvailableBuffer()
		n, rerr := resp.Body.Read(spare[:cap(spare)])
		if n > 0 {
			buf.Write(spare[:n])
			if first.IsZero() && (!stream || bytes.Contains(buf.Bytes(), []byte("\n\n"))) {
				first = time.Now()
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return Fetched{Outcome: Transport, End: time.Now(), Bytes: buf.Len()}
		}
	}
	f := Fetched{End: time.Now(), Bytes: buf.Len()}
	var got []Answer
	if stream {
		f.Outcome, got = classifyStream(resp.StatusCode, buf.Bytes())
	} else {
		f.Outcome, got = classifyJSON(resp.StatusCode, buf.Bytes())
	}
	if f.Outcome == OK && req.Oracle && !o.Matches(req.Query, got) {
		f.Outcome = Mismatch
	}
	if f.Outcome == OK && len(got) > 0 {
		f.First = first
	}
	return f
}

func classifyStatus(status int) Outcome {
	switch status {
	case http.StatusOK:
		return OK
	case http.StatusTooManyRequests:
		return Shed
	}
	return Status
}

func classifyJSON(status int, body []byte) (Outcome, []Answer) {
	if o := classifyStatus(status); o != OK {
		return o, nil
	}
	var resp struct {
		Answers []Answer `json:"answers"`
		Partial bool     `json:"partial"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return Malformed, nil
	}
	if resp.Partial {
		return Partial, nil
	}
	return OK, resp.Answers
}

// classifyStream reads an SSE body: the final ranking is the sequence of
// `answer` events (provisional events are best-effort), and the stream is
// complete only when it ends with a non-partial, error-free `done`.
func classifyStream(status int, body []byte) (Outcome, []Answer) {
	if o := classifyStatus(status); o != OK {
		return o, nil
	}
	var got []Answer
	done := false
	for _, ev := range bytes.Split(body, []byte("\n\n")) {
		name, data, ok := bytes.Cut(ev, []byte("\ndata: "))
		if !ok {
			continue
		}
		switch string(name) {
		case "event: answer":
			var a Answer
			if err := json.Unmarshal(data, &a); err != nil {
				return Malformed, nil
			}
			got = append(got, a)
		case "event: done":
			var d struct {
				Answers int    `json:"answers"`
				Partial bool   `json:"partial"`
				Error   string `json:"error"`
			}
			if err := json.Unmarshal(data, &d); err != nil || d.Answers != len(got) {
				return Malformed, nil
			}
			if d.Partial || d.Error != "" {
				return Partial, nil
			}
			done = true
		}
	}
	if !done {
		return Malformed, nil
	}
	return OK, got
}

// Matches reports whether got is exactly the oracle's ranking for the
// query (an unknown query expects no answers).
func (o Oracle) Matches(query string, got []Answer) bool { return Equal(got, o[query]) }

// Equal reports whether two rankings agree answer by answer.
func Equal(got, want []Answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Score != want[i].Score || len(got[i].Bindings) != len(want[i].Bindings) {
			return false
		}
		for k, v := range want[i].Bindings {
			if g, ok := got[i].Bindings[k]; !ok || g != v {
				return false
			}
		}
	}
	return true
}
