// Package faultnet wraps net.Conn with deterministic fault injection for
// the telemetry pipeline's robustness tests: injected write failures,
// partial writes, garbage bytes on the wire and delayed flushes. Every
// fault triggers on a fixed write index, so a test run is exactly
// reproducible — no randomness, no timing races in the plan itself.
//
// The wrapper sits on the reporter side of a real TCP connection, which
// exercises the full stack on both ends: the reporter's reconnect and
// replay paths, and the shard's frame rejection, accounting and
// deadline paths.
//
//homesight:ignore unreachable — (c) telemetry's TestFault* suite and fleet's TestFaultShardKill inject their faults through it
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjected is returned by writes that a fault plan makes fail. The
// reporter treats it like any transport error: tear down, reconnect,
// resend.
var ErrInjected = errors.New("faultnet: injected fault")

// DefaultGarbage is the injected noise. Read as a batch frame header, its
// first four bytes declare a payload far past telemetry.MaxBatchBytes, so
// a shard rejects it as a corrupt frame before reading further.
var DefaultGarbage = []byte("\x00\x01<<faultnet garbage>>\x02\n")

// Faults is a deterministic fault plan for one wrapped connection.
// Write calls are indexed from 0; each knob triggers on those indexes.
// The zero value injects nothing.
type Faults struct {
	// FailWrites lists write indexes that fail with ErrInjected before
	// any bytes reach the wire: a cleanly lost report.
	FailWrites []int
	// FailEvery > 0 fails every n-th write (1 = every write) the same
	// way, in addition to FailWrites.
	FailEvery int
	// PartialWrites lists write indexes that transmit only the first
	// half of the payload and then fail with ErrInjected: a mid-report
	// broken pipe, leaving a truncated frame on the peer's wire.
	PartialWrites []int
	// GarbageEvery > 0 injects Garbage into the stream before every
	// n-th write: noise between frames.
	GarbageEvery int
	// Garbage overrides DefaultGarbage when non-nil.
	Garbage []byte
	// WriteDelay pauses before every write: a slow sender or delayed
	// flush. Combined with a shard read deadline it forces timeouts.
	WriteDelay time.Duration
}

// Injections counts the faults a Conn actually fired, so tests can
// reconcile receiver drop counters against ground truth.
type Injections struct {
	// Fails is the number of writes failed before reaching the wire.
	Fails int
	// Partials is the number of writes truncated mid-payload.
	Partials int
	// GarbageLines is the number of garbage lines put on the wire.
	GarbageLines int
	// Writes is the total number of Write calls observed.
	Writes int
}

// Conn wraps a net.Conn and injects the configured faults. Reads pass
// through untouched. The counters are locked, so tests may snapshot a
// Conn while another goroutine writes.
type Conn struct {
	net.Conn
	plan Faults

	mu  sync.Mutex
	inj Injections
}

// Wrap returns conn with the fault plan applied to its writes.
func Wrap(conn net.Conn, plan Faults) *Conn {
	return &Conn{Conn: conn, plan: plan}
}

// Injected returns the faults fired so far.
func (c *Conn) Injected() Injections {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj
}

// Write applies the fault plan to one write. A failed or truncated write
// returns ErrInjected; the underlying connection stays open (the caller
// is expected to tear it down), so previously written bytes are still
// delivered — faults are injected, not compounded with TCP resets that
// would make loss nondeterministic.
func (c *Conn) Write(p []byte) (int, error) {
	// Decide this write's fate and bump the injection counters under the
	// lock; the delay and the actual socket writes happen after release so
	// the mutex never pins a blocked writer.
	c.mu.Lock()
	idx := c.inj.Writes
	c.inj.Writes++
	garbage := c.plan.GarbageEvery > 0 && (idx+1)%c.plan.GarbageEvery == 0
	fail := indexIn(c.plan.FailWrites, idx) ||
		(c.plan.FailEvery > 0 && (idx+1)%c.plan.FailEvery == 0)
	partial := !fail && indexIn(c.plan.PartialWrites, idx)
	if garbage {
		c.inj.GarbageLines++
	}
	if fail {
		c.inj.Fails++
	}
	if partial {
		c.inj.Partials++
	}
	c.mu.Unlock()

	if c.plan.WriteDelay > 0 {
		time.Sleep(c.plan.WriteDelay)
	}
	if garbage {
		line := c.plan.Garbage
		if line == nil {
			line = DefaultGarbage
		}
		if _, err := c.Conn.Write(line); err != nil {
			return 0, err
		}
	}
	if fail {
		return 0, ErrInjected
	}
	if partial {
		n, err := c.Conn.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	return c.Conn.Write(p)
}

func indexIn(xs []int, idx int) bool {
	for _, x := range xs {
		if x == idx {
			return true
		}
	}
	return false
}
