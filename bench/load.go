package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"trinit"
	"trinit/bench/check"
	"trinit/bench/workload"
	"trinit/internal/server"
)

// serving is an engine behind internal/server on a loopback listener,
// configured like cmd/trinitd.
type serving struct {
	engine  *trinit.Engine
	handler *server.Server
	http    *http.Server
	base    string
	served  chan error
	client  *http.Client
}

// serve opens the data directory and starts the listener: trinitd's
// timeouts, trinitd's default admission capacity of 4×GOMAXPROCS.
func serve(dataDir string, opts trinit.Options) (*serving, error) {
	e, _, err := trinit.Open(dataDir, &opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dataDir, err)
	}
	e.SetAdmissionControl(4*runtime.GOMAXPROCS(0), 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, err
	}
	h := server.New(e)
	s := &serving{
		engine:  e,
		handler: h,
		http: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		// One keep-alive connection per concurrent request; the timeout
		// turns a hung server into counted failures instead of a hung run.
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64},
			Timeout:   20 * time.Second,
		},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stopHTTP drains the listener and waits for Serve to return; the engine
// stays open.
func (s *serving) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// load is what one load phase observed from the client side.
type load struct {
	tally check.Tally
	// latency and first hold one sample per succeeded request: from its
	// start (closed loop) or due time (open loop) to the last body byte,
	// and to the first visible answer (requests with no answers have none).
	latency, first []time.Duration
	// lag is how late the open-loop generator sent each request.
	lag     []time.Duration
	elapsed time.Duration
}

func (l *load) record(req workload.Request, f check.Fetched, from time.Time) {
	l.tally.Add(f.Outcome, req.Query)
	if f.Outcome != check.OK {
		return
	}
	l.latency = append(l.latency, f.End.Sub(from))
	if !f.First.IsZero() {
		l.first = append(l.first, f.First.Sub(from))
	}
}

func (l *load) merge(o *load) {
	l.tally.Merge(o.tally)
	l.latency = append(l.latency, o.latency...)
	l.first = append(l.first, o.first...)
}

// closedLoop runs the spec's request sequence from offset with n clients
// for d: client c sends requests offset+c, offset+c+n, … and sends its
// next only when the previous completed. A request started inside the
// window is completed and counted.
func closedLoop(s *serving, oracle check.Oracle, reqs []workload.Request, offset, n int, d time.Duration) *load {
	parts := make([]*load, n)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &load{}
			var buf bytes.Buffer
			for i := offset + c; time.Now().Before(deadline); i += n {
				req := reqs[i%len(reqs)]
				start := time.Now()
				l.record(req, oracle.Fetch(s.client, s.base, req, &buf), start)
			}
			parts[c] = l
		}(c)
	}
	wg.Wait()
	total := &load{elapsed: time.Since(begin)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// openLoop sends the sequence from offset at a fixed rate for d, each
// request on its own goroutine whether or not earlier ones have returned,
// and times each from the moment it was due.
func openLoop(s *serving, oracle check.Oracle, reqs []workload.Request, offset int, rate float64, d time.Duration) *load {
	total := &load{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	begin := time.Now()
	for i, n := 0, scheduled(rate, d); i < n; i++ {
		due := begin.Add(workload.Due(i, rate))
		time.Sleep(time.Until(due))
		total.lag = append(total.lag, time.Since(due))
		req := reqs[(offset+i)%len(reqs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := bufs.Get().(*bytes.Buffer)
			f := oracle.Fetch(s.client, s.base, req, buf)
			bufs.Put(buf)
			mu.Lock()
			total.record(req, f, due)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(begin)
	return total
}

// ingest is what a writer observed.
type ingest struct {
	// latency holds one sample per acknowledged batch: from its due time
	// (open loop) or start (back to back) until IngestFacts returned.
	latency        []time.Duration
	lag            []time.Duration
	batches, facts int
	failed         int
	firstErr       error
	elapsed        time.Duration
}

// scheduled is the number of open-loop events at rate per second that are
// due within d.
func scheduled(rate float64, d time.Duration) int {
	n := 0
	for workload.Due(n, rate) < d {
		n++
	}
	return n
}

// writeBatches calls IngestFacts with each batch in turn: on the open-loop
// schedule at rate per second when rate > 0, back to back otherwise. One
// goroutine: the engine serialises ingest anyway, so a slow batch delays
// the ones due behind it and their latency, timed from the due time, shows
// the stall.
func writeBatches(e *trinit.Engine, batches [][]trinit.Fact, rate float64) *ingest {
	in := &ingest{}
	begin := time.Now()
	for i, batch := range batches {
		from := time.Now()
		if rate > 0 {
			from = begin.Add(workload.Due(i, rate))
			time.Sleep(time.Until(from))
			in.lag = append(in.lag, time.Since(from))
		}
		n, err := e.IngestFacts(batch)
		in.batches++
		if err != nil || n != len(batch) {
			in.failed++
			if in.firstErr == nil {
				in.firstErr = fmt.Errorf("batch %d: applied %d of %d facts: %v", i, n, len(batch), err)
			}
			continue
		}
		in.latency = append(in.latency, time.Since(from))
		in.facts += n
	}
	in.elapsed = time.Since(begin)
	return in
}
