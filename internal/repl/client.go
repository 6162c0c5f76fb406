package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/wal"
)

// Transport is the wire between a follower and its leader. The real
// implementation is HTTPTransport; LocalTransport runs against an
// in-process Server so oracle tests and benchmarks replicate without a
// second process (mock-vs-real split: the Client's reconnect, re-sync,
// dedupe, and ack logic is identical over both).
type Transport interface {
	// Snapshot opens a bootstrap snapshot stream.
	Snapshot(ctx context.Context) (io.ReadCloser, error)
	// Stream opens a frame stream resuming after LSN from.
	Stream(ctx context.Context, id string, from uint64) (io.ReadCloser, error)
	// Ack reports the follower's applied position to the leader.
	Ack(ctx context.Context, id string, lsn uint64) error
}

// Applier is the follower database's apply surface; the root mview
// package implements it. All three methods are called from the
// client's single run loop, never concurrently.
type Applier interface {
	// Bootstrap replaces the follower's state from a leader snapshot
	// stream and returns the WAL position the snapshot reflects.
	Bootstrap(r io.Reader) (uint64, error)
	// Apply applies records in order (LSNs strictly sequential from
	// AppliedLSN()+1; noop continuity records included). Any error
	// means the replica has diverged and must re-sync.
	Apply(recs []wal.Record) error
	// AppliedLSN is the last applied position (0 before bootstrap).
	AppliedLSN() uint64
}

// ClientStatus is a follower's view of its own replication state,
// exported on the follower's /debug/stats.
type ClientStatus struct {
	State       string  `json:"state"` // bootstrapping | streaming | reconnecting
	AppliedLSN  uint64  `json:"applied_lsn"`
	LeaderLSN   uint64  `json:"leader_lsn"` // from the last heartbeat or batch
	LagLSN      uint64  `json:"lag_lsn"`
	Resyncs     uint64  `json:"resyncs"`
	Reconnects  uint64  `json:"reconnects"`
	LastContact float64 `json:"last_contact_seconds"` // since any frame
	LastError   string  `json:"last_error,omitempty"` // most recent stream/bootstrap failure
}

// Client drives one follower: bootstrap, stream, apply, ack, and the
// two recovery motions — reconnect with resume after a dropped stream
// (leader restart) and full re-sync after a gap or apply divergence.
type Client struct {
	id string
	t  Transport
	a  Applier

	// RetryMin/RetryMax bound the reconnect backoff. Zero values
	// select defaults.
	RetryMin time.Duration
	RetryMax time.Duration

	mu          sync.Mutex
	state       string
	leaderLSN   uint64
	lastContact time.Time
	resyncs     uint64
	reconnects  uint64
	lastErr     string
}

// NewClient builds a follower client. id must be stable across
// restarts of the follower process (it names the leader-side lag
// series).
func NewClient(id string, t Transport, a Applier) *Client {
	return &Client{
		id:       id,
		t:        t,
		a:        a,
		RetryMin: 50 * time.Millisecond,
		RetryMax: 2 * time.Second,
	}
}

// Status reports the follower's replication state.
func (c *Client) Status() ClientStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	applied := c.a.AppliedLSN()
	st := ClientStatus{
		State:      c.state,
		AppliedLSN: applied,
		LeaderLSN:  c.leaderLSN,
		Resyncs:    c.resyncs,
		Reconnects: c.reconnects,
		LastError:  c.lastErr,
	}
	if c.leaderLSN > applied {
		st.LagLSN = c.leaderLSN - applied
	}
	if !c.lastContact.IsZero() {
		st.LastContact = time.Since(c.lastContact).Seconds()
	}
	return st
}

func (c *Client) setState(s string) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}

func (c *Client) noteContact(leaderLSN uint64) {
	c.mu.Lock()
	if leaderLSN > c.leaderLSN {
		c.leaderLSN = leaderLSN
	}
	c.lastContact = time.Now()
	c.mu.Unlock()
}

// errResync forces a bootstrap on the next loop iteration.
var errResync = errors.New("repl: re-sync required")

// Run replicates until ctx is cancelled. It returns ctx.Err() on
// cancellation; transient failures (dropped streams, refused
// connections, gaps) are handled internally with backoff, re-sync, or
// both — a follower keeps serving its last applied state throughout.
func (c *Client) Run(ctx context.Context) error {
	backoff := c.RetryMin
	needBootstrap := c.a.AppliedLSN() == 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if needBootstrap {
			c.setState("bootstrapping")
			if err := c.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				c.noteError(err)
				backoff = c.sleep(ctx, backoff)
				continue
			}
			needBootstrap = false
			backoff = c.RetryMin
		}
		c.setState("streaming")
		err := c.stream(ctx)
		if err != nil {
			c.noteError(err)
		}
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, errResync):
			needBootstrap = true
			c.mu.Lock()
			c.resyncs++
			c.mu.Unlock()
		default:
			// Dropped stream (leader restart, network): resume from the
			// applied position after a backoff.
			c.setState("reconnecting")
			c.mu.Lock()
			c.reconnects++
			c.mu.Unlock()
			backoff = c.sleep(ctx, backoff)
		}
	}
}

func (c *Client) noteError(err error) {
	c.mu.Lock()
	c.lastErr = err.Error()
	c.mu.Unlock()
}

func (c *Client) sleep(ctx context.Context, backoff time.Duration) time.Duration {
	select {
	case <-ctx.Done():
		return backoff
	case <-time.After(backoff):
	}
	next := backoff * 2
	if next > c.RetryMax {
		next = c.RetryMax
	}
	return next
}

func (c *Client) bootstrap(ctx context.Context) error {
	rc, err := c.t.Snapshot(ctx)
	if err != nil {
		return err
	}
	defer rc.Close()
	lsn, err := c.a.Bootstrap(rc)
	if err != nil {
		return err
	}
	c.noteContact(lsn)
	_ = c.t.Ack(ctx, c.id, lsn)
	return nil
}

// ackWindow is the least time between the starts of two acks one
// stream posts. The leader's view of a follower (ack_lsn, the lag
// gauges) is therefore up to one window stale.
const ackWindow = 10 * time.Millisecond

// acker posts one stream's applied position to the leader off the apply
// loop. note records the latest position and wakes the sender, which
// posts it and then waits out the rest of ackWindow; positions noted
// meanwhile coalesce into its next post, so a quiet stream's last
// position is acked within one window.
type acker struct {
	lsn  atomic.Uint64
	wake chan struct{} // capacity 1: one pending post
	done chan struct{} // closed when the sender exits
}

// note asks for lsn to be acked.
func (a *acker) note(lsn uint64) {
	a.lsn.Store(lsn)
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// startAcks runs a stream's ack sender until ctx is cancelled.
func (c *Client) startAcks(ctx context.Context) *acker {
	a := &acker{wake: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		var window *time.Timer
		for {
			select {
			case <-ctx.Done():
				return
			case <-a.wake:
			}
			start := time.Now()
			_ = c.t.Ack(ctx, c.id, a.lsn.Load())
			wait := ackWindow - time.Since(start)
			if wait <= 0 {
				continue
			}
			if window == nil {
				window = time.NewTimer(wait)
			} else {
				window.Reset(wait)
			}
			select {
			case <-ctx.Done():
				window.Stop()
				return
			case <-window.C:
			}
		}
	}()
	return a
}

// stream consumes one frame stream until it drops (returns the
// transport error), the context cancels (returns nil), or the leader
// reports a gap / apply diverges (returns errResync). Acks go through
// the stream's own sender, which stops with the stream.
func (c *Client) stream(ctx context.Context) error {
	from := c.a.AppliedLSN()
	rc, err := c.t.Stream(ctx, c.id, from)
	if err != nil {
		return err
	}
	defer rc.Close()
	actx, cancel := context.WithCancel(ctx)
	acks := c.startAcks(actx)
	defer func() {
		cancel()
		<-acks.done
	}()
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		typ, payload, err := readFrame(rc)
		if err != nil {
			return err
		}
		switch typ {
		case frameRecords:
			recs, err := decodeRecords(payload)
			if err != nil {
				return err
			}
			applied := c.a.AppliedLSN()
			// Dedupe after a resumed stream: drop what we already have;
			// a forward jump is a protocol violation → re-sync rather
			// than risk silent divergence.
			fresh := recs[:0]
			for _, r := range recs {
				if r.LSN <= applied {
					continue
				}
				if r.LSN != applied+1 {
					return fmt.Errorf("repl: record LSN %d after applied %d: %w", r.LSN, applied, errResync)
				}
				fresh = append(fresh, r)
				applied = r.LSN
			}
			if len(fresh) == 0 {
				continue
			}
			if err := c.a.Apply(fresh); err != nil {
				return fmt.Errorf("repl: apply after %d: %v: %w", from, err, errResync)
			}
			c.noteContact(c.a.AppliedLSN())
			acks.note(c.a.AppliedLSN())
		case frameHeartbeat:
			hb, err := decodeHeartbeat(payload)
			if err != nil {
				return err
			}
			c.noteContact(hb.LastLSN)
			acks.note(c.a.AppliedLSN())
		case frameGap:
			gap, err := decodeGap(payload)
			if err != nil {
				return err
			}
			return fmt.Errorf("repl: leader reclaimed records after %d (oldest retained %d): %w",
				c.a.AppliedLSN(), gap.Oldest, errResync)
		default:
			return fmt.Errorf("repl: unknown frame type %d", typ)
		}
	}
}

// LocalTransport connects a Client to an in-process Server over
// io.Pipe — the stream and snapshot bytes are identical to the HTTP
// wire, only the transport differs.
type LocalTransport struct {
	S *Server
}

func (lt LocalTransport) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	pr, pw := io.Pipe()
	go func() {
		_, err := lt.S.Snapshot(pw)
		pw.CloseWithError(err)
	}()
	return pr, nil
}

func (lt LocalTransport) Stream(ctx context.Context, id string, from uint64) (io.ReadCloser, error) {
	pr, pw := io.Pipe()
	go func() {
		err := lt.S.StreamTo(ctx, id, from, pw)
		if err == nil {
			err = io.EOF
		}
		pw.CloseWithError(err)
	}()
	return pr, nil
}

func (lt LocalTransport) Ack(ctx context.Context, id string, lsn uint64) error {
	lt.S.Ack(id, lsn)
	return nil
}

// HTTPTransport talks to a leader's /v1/replication routes.
type HTTPTransport struct {
	// Base is the leader's base URL, e.g. "http://leader:7171".
	Base string
	// Client defaults to a streaming-friendly client (no overall
	// timeout — the stream is long-lived; dial failures surface fast).
	Client *http.Client
}

func (ht HTTPTransport) client() *http.Client {
	if ht.Client != nil {
		return ht.Client
	}
	return http.DefaultClient
}

func (ht HTTPTransport) get(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ht.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := ht.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("repl: GET %s: %s: %s", path, resp.Status, body)
	}
	return resp.Body, nil
}

func (ht HTTPTransport) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	return ht.get(ctx, "/v1/replication/snapshot")
}

func (ht HTTPTransport) Stream(ctx context.Context, id string, from uint64) (io.ReadCloser, error) {
	return ht.get(ctx, "/v1/replication/stream?id="+url.QueryEscape(id)+"&from="+strconv.FormatUint(from, 10))
}

func (ht HTTPTransport) Ack(ctx context.Context, id string, lsn uint64) error {
	u := ht.Base + "/v1/replication/ack?id=" + url.QueryEscape(id) + "&lsn=" + strconv.FormatUint(lsn, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	resp, err := ht.client().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: ack: %s", resp.Status)
	}
	return nil
}
