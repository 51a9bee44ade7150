// Package admission implements engine-level admission control: a
// weighted semaphore sized in evaluation goroutines, with a bounded FIFO
// wait queue and deadline-aware load shedding.
//
// Each query acquires weight equal to the evaluation goroutines it
// occupies before it starts evaluating — 1, or N on an engine with N
// shards — so capacity bounds the total number of evaluation goroutines
// rather than the number of queries. When capacity is exhausted
// arrivals wait in FIFO order, but never unboundedly: a full queue or a
// caller deadline that the controller predicts it cannot meet (from an
// EWMA of recent queue waits) is shed immediately with a typed error,
// which the HTTP layer maps to 429 + Retry-After. Shedding early keeps
// the queue short and the process live instead of queueing into
// collapse.
package admission

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull is returned by Acquire when the wait queue is at
// capacity: the query is shed without waiting.
var ErrQueueFull = errors.New("admission: wait queue full")

// ErrDeadline is returned by Acquire when the caller's deadline is
// closer than the predicted queue wait: the query is shed immediately
// rather than admitted to time out.
var ErrDeadline = errors.New("admission: deadline unlikely to be met")

// Controller is a weighted semaphore with a bounded FIFO wait queue.
// The zero value is unusable; construct with New. A nil *Controller is
// valid and admits everything (admission disabled).
type Controller struct {
	mu       sync.Mutex
	capacity int64
	maxQueue int
	inUse    int64
	queue    []*waiter

	admitted uint64
	shed     uint64
	// avgWait is an EWMA of the queue wait observed by admitted
	// waiters, used to predict whether a deadline can be met.
	avgWait time.Duration
}

type waiter struct {
	weight  int64
	ready   chan struct{}
	granted bool
	since   time.Time
}

// New returns a controller admitting up to capacity units of weight
// concurrently, with at most maxQueue waiters queued behind them.
// capacity must be >= 1; maxQueue <= 0 disables queueing (arrivals
// that do not fit are shed immediately).
func New(capacity int64, maxQueue int) *Controller {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Controller{capacity: capacity, maxQueue: maxQueue}
}

// Acquire blocks until weight units are granted, the queue overflows
// (ErrQueueFull), the deadline is predicted unmeetable (ErrDeadline),
// or ctx is done (its error). On success the caller must Release the
// same weight. Weights above capacity are clamped so a query wider
// than the whole controller still runs (alone). On a nil controller
// Acquire is a no-op.
func (c *Controller) Acquire(ctx context.Context, weight int64) error {
	if c == nil {
		return nil
	}
	if weight < 1 {
		weight = 1
	}
	c.mu.Lock()
	if weight > c.capacity {
		weight = c.capacity
	}
	// Fast path: nothing queued ahead and capacity available.
	if len(c.queue) == 0 && c.inUse+weight <= c.capacity {
		c.inUse += weight
		c.admitted++
		c.mu.Unlock()
		return nil
	}
	if len(c.queue) >= c.maxQueue {
		c.shed++
		c.mu.Unlock()
		return ErrQueueFull
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := c.predictWaitLocked(); wait > 0 && time.Until(dl) < wait {
			c.shed++
			c.mu.Unlock()
			return ErrDeadline
		}
	}
	w := &waiter{weight: weight, ready: make(chan struct{}), since: time.Now()}
	c.queue = append(c.queue, w)
	c.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// Lost the race: the grant happened between ctx firing and
			// us taking the lock. Hand the weight back.
			c.releaseLocked(w.weight)
		} else {
			for i, q := range c.queue {
				if q == w {
					c.queue = append(c.queue[:i], c.queue[i+1:]...)
					break
				}
			}
			c.shed++
		}
		c.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns weight units acquired by a successful Acquire,
// waking queued waiters that now fit. No-op on a nil controller.
func (c *Controller) Release(weight int64) {
	if c == nil {
		return
	}
	if weight < 1 {
		weight = 1
	}
	c.mu.Lock()
	if weight > c.capacity {
		weight = c.capacity
	}
	c.releaseLocked(weight)
	c.mu.Unlock()
}

func (c *Controller) releaseLocked(weight int64) {
	c.inUse -= weight
	if c.inUse < 0 {
		c.inUse = 0
	}
	c.grantLocked()
}

// grantLocked admits queued waiters in FIFO order while the head fits.
// Granting out of order would let small queries starve a wide one at
// the head of the queue.
func (c *Controller) grantLocked() {
	for len(c.queue) > 0 {
		w := c.queue[0]
		if c.inUse+w.weight > c.capacity {
			return
		}
		c.queue = c.queue[1:]
		c.inUse += w.weight
		c.admitted++
		c.observeWaitLocked(time.Since(w.since))
		w.granted = true
		close(w.ready)
	}
}

// observeWaitLocked folds one observed queue wait into the EWMA
// (α = 1/4 — reactive enough for bursts, stable across single spikes).
func (c *Controller) observeWaitLocked(d time.Duration) {
	if c.avgWait == 0 {
		c.avgWait = d
		return
	}
	c.avgWait += (d - c.avgWait) / 4
}

// predictWaitLocked estimates the queue wait a new arrival would see:
// the EWMA of recent waits scaled by current queue depth (each waiter
// ahead roughly serialises one more wait).
func (c *Controller) predictWaitLocked() time.Duration {
	if c.avgWait == 0 {
		return 0
	}
	return c.avgWait * time.Duration(len(c.queue)+1)
}

// Saturated reports whether a new arrival would be shed or forced to
// queue: the readiness signal for /readyz. A nil controller is never
// saturated.
func (c *Controller) Saturated() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxQueue <= 0 {
		return c.inUse >= c.capacity
	}
	return len(c.queue) >= c.maxQueue
}

// Stats is a snapshot of the controller's counters.
type Stats struct {
	Capacity int64
	InUse    int64
	Queued   int
	Admitted uint64
	Shed     uint64
	AvgWait  time.Duration
}

// Stats returns a consistent snapshot. A nil controller reports zeros.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Capacity: c.capacity,
		InUse:    c.inUse,
		Queued:   len(c.queue),
		Admitted: c.admitted,
		Shed:     c.shed,
		AvgWait:  c.avgWait,
	}
}
