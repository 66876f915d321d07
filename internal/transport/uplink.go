package transport

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// uplink is the upstream half of the protocol, shared by the point client
// and a relay's upstream hop: dial the parent, run the Hello↔Welcome
// exchange, and keep a retransmit buffer of epoch uploads that survives
// the connection. Policy stays with the owner — a point redials a bounded
// number of times when its epoch clock asks, a relay redials on its own
// until Close. The owner's mutex guards every field but the counters,
// which are atomic so Stats never waits behind a blocked write.
type uplink struct {
	// id is the owner's child id at the parent (Hello.Point).
	id   int
	addr string
	dial func(addr string) (net.Conn, error)
	// wto bounds each upload or heartbeat write (0 = unbounded).
	wto time.Duration
	// redial is the backoff schedule each redial sequence starts from;
	// sleep is its delay hook (time.Sleep outside tests).
	redial backoff
	sleep  func(time.Duration)

	conn net.Conn
	enc  *gob.Encoder
	// pending holds the last window of epoch uploads: uploads are
	// appended here first, then the unsent entries are drained over the
	// live connection. Uploads whose transmission failed stay unsent and
	// are retransmitted after the next handshake, so epochs that end while
	// the parent is unreachable are not silently lost. Entries that were
	// sent are retained (sent=true) instead of discarded: if a restarted
	// parent restores a checkpoint that predates them, the Welcome
	// requeues exactly the epochs it lost. The buffer is capped at one
	// window (windowN epochs): anything older falls outside every live
	// ST-join, so retaining it only wastes memory.
	pending []pendingUpload
	windowN int

	retries, drops, writeTimeouts, heartbeats atomic.Int64
}

// pendingUpload is a buffered epoch upload. attempted marks uploads whose
// first transmission failed (or that were buffered while disconnected);
// sending one after reconnect counts as a retry. sent marks uploads the
// encoder accepted; they stay buffered as history for parent-restart
// requeues until the window slides past them.
type pendingUpload struct {
	up        Upload
	attempted bool
	sent      bool
}

// dialer returns dial, or a TCP dialer bounded by timeout when dial is nil.
func dialer(dial func(string) (net.Conn, error), timeout time.Duration) func(string) (net.Conn, error) {
	if dial != nil {
		return dial
	}
	timeout = effectiveDialTimeout(timeout)
	return func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
}

// effectiveDialTimeout maps a configured DialTimeout to the bound actually
// applied to raw TCP dials (default 10s; the config value wins when set).
// An unbounded dial would stall the caller for the whole kernel timeout
// when the parent's host drops off the network.
func effectiveDialTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return 10 * time.Second
	}
	return d
}

// backoff is the jittered exponential redial schedule: each delay is drawn
// from the full-jitter band [d/2, d], so peers knocked out by the same
// parent restart spread their retries instead of redialing in lockstep,
// and d doubles up to max.
type backoff struct{ d, max time.Duration }

// newBackoff applies the defaults (200ms initial, 2s cap).
func newBackoff(base, max time.Duration) backoff {
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	return backoff{d: base, max: max}
}

func (b *backoff) next() time.Duration {
	delay := b.d/2 + time.Duration(rand.Int63n(int64(b.d/2)+1))
	if b.d *= 2; b.d > b.max {
		b.d = b.max
	}
	return delay
}

// open dials the parent and runs the Hello↔Welcome exchange, offering the
// packed codec. A Welcome naming any other codec comes from a peer this
// build cannot talk to and fails the handshake. The caller installs the
// connection with attach under its lock.
func (u *uplink) open(hello Hello) (conn net.Conn, enc *gob.Encoder, dec *gob.Decoder, w Welcome, err error) {
	conn, err = u.dial(u.addr)
	if err != nil {
		return nil, nil, nil, w, fmt.Errorf("transport: dial %s: %w", u.addr, err)
	}
	hello.Codec = CodecPacked
	enc = gob.NewEncoder(conn)
	if err = enc.Encode(hello); err != nil {
		conn.Close()
		return nil, nil, nil, w, fmt.Errorf("transport: send hello: %w", err)
	}
	dec = gob.NewDecoder(conn)
	if err = dec.Decode(&w); err != nil {
		conn.Close()
		return nil, nil, nil, w, fmt.Errorf("transport: receive welcome: %w", err)
	}
	if w.Codec != CodecPacked {
		conn.Close()
		return nil, nil, nil, w, fmt.Errorf("transport: parent answered with payload codec %d; this build speaks only codec %d (packed)",
			w.Codec, CodecPacked)
	}
	return conn, enc, dec, w, nil
}

// attach installs a handshaken connection and resyncs the buffer with the
// parent's Welcome: the cap follows the cluster's window, and sent uploads
// past PointEpoch were lost with the parent's state (a restore from an old
// checkpoint), so they are requeued — idempotent at the parent if the
// restore turns out fresher than advertised. Callers hold the owner's lock.
func (u *uplink) attach(conn net.Conn, enc *gob.Encoder, w Welcome) {
	u.conn, u.enc = conn, enc
	if w.WindowN > 0 {
		u.windowN = w.WindowN
	}
	for i := range u.pending {
		if u.pending[i].sent && u.pending[i].up.Epoch > w.PointEpoch {
			u.pending[i].sent = false
			u.pending[i].attempted = true
		}
	}
}

// encode writes one frame on the live connection, bounded by the write
// timeout. A write that timed out means the parent stopped draining (a
// half-open peer) and the encoder is poisoned mid-frame, so the
// connection is closed: the reader unblocks and the owner's redial path
// takes over. Callers hold the owner's lock.
func (u *uplink) encode(v any) error {
	conn := u.conn
	if u.wto > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(u.wto))
		defer conn.SetWriteDeadline(time.Time{})
	}
	err := u.enc.Encode(v)
	if isWedged(err) {
		u.writeTimeouts.Add(1)
		_ = conn.Close()
	}
	return err
}

// flush sends the buffer's unsent uploads over the live connection (if
// any), oldest first, keeping them as sent history afterwards. On a failed
// write the remaining unsent uploads stay and are marked attempted.
// Callers hold the owner's lock.
func (u *uplink) flush() error {
	if u.enc == nil {
		return nil
	}
	for i := range u.pending {
		p := &u.pending[i]
		if p.sent {
			continue
		}
		if err := u.encode(p.up); err != nil {
			u.markAttempted()
			return fmt.Errorf("transport: upload epoch %d: %w", p.up.Epoch, err)
		}
		if p.attempted {
			u.retries.Add(1)
		}
		p.sent = true
	}
	return nil
}

// markAttempted records that every unsent buffered upload has missed at
// least one transmission window. Callers hold the owner's lock.
func (u *uplink) markAttempted() {
	for i := range u.pending {
		if !u.pending[i].sent {
			u.pending[i].attempted = true
		}
	}
}

// capPending bounds the buffer (unsent retransmits plus sent history) at
// one window of epochs and returns how many UNSENT uploads it dropped —
// lost measurements, counted in drops; dropping sent history is free.
// Callers hold the owner's lock.
func (u *uplink) capPending() int {
	if u.windowN <= 0 || len(u.pending) <= u.windowN {
		return 0
	}
	drop := len(u.pending) - u.windowN
	unsent := 0
	for _, p := range u.pending[:drop] {
		if !p.sent {
			unsent++
		}
	}
	u.drops.Add(int64(unsent))
	u.pending = append(u.pending[:0], u.pending[drop:]...)
	return unsent
}

// heartbeat sends liveness probes on conn every interval until stop
// closes, a probe fails, or a newer connection replaces conn, so a parent
// with a read deadline keeps the owner admitted through quiet stretches.
// Probes share the upload encoder under mu (the owner's lock), so they
// interleave cleanly with uploads; epoch stamps each probe and is called
// under mu. A failed probe only stops the loop — the owner's error and
// redial machinery owns recovery.
func (u *uplink) heartbeat(mu *sync.Mutex, conn net.Conn, stop <-chan struct{}, every time.Duration, epoch func() int64) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		mu.Lock()
		if u.conn != conn {
			mu.Unlock()
			return
		}
		err := u.encode(Upload{Point: u.id, Epoch: epoch(), Heartbeat: true})
		mu.Unlock()
		if err != nil {
			return
		}
		u.heartbeats.Add(1)
	}
}
