package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// appendRequest appends one complete HTTP/1.1 request. Requests are
// encoded during set-up so that sending one is a single write.
func appendRequest(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: mviewd\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// dialer opens connections to a daemon: a TCP address for a child
// process, or an in-memory pipe served by a handler in the self-test.
type dialer func() (net.Conn, error)

func tcpDialer(addr string) dialer {
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }
}

// conn is one client connection. One goroutine owns it; requests are
// strictly sequential (no pipelining), which is what makes a
// connection a closed-loop client.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer // last response body, reused
}

func newConn(d dialer) (*conn, error) {
	c, err := d()
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends pre-encoded request bytes and reads the whole response. The
// returned body is valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// call is do for set-up and checks: it builds the request, and turns a
// status outside 2xx into an error carrying the server's message.
func (c *conn) call(method, path string, body []byte) ([]byte, error) {
	status, resp, err := c.do(appendRequest(nil, method, path, body))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status < 200 || status > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	return resp, nil
}

// lane is one client goroutine's work: a connection and the requests
// it sends in order. A write lane walks a Stream; the read lane
// repeats one GET.
type lane struct {
	c      *conn
	stream *Stream // nil for the read lane
	next   int     // next stream index to send
	get    []byte  // the read lane's request

	// checkpointAt, when ≥ 0, is the open-loop operation index before
	// which this lane issues POST /v1/checkpoint in-line. Its time is
	// not a commit sample, but the commits behind it keep their due
	// times, so the stall it causes is in their latency.
	checkpointAt int

	// onRead, when set, sees each read's body and completion time (the
	// open-loop phase uses it to find when a sequence number became
	// visible).
	onRead func(body []byte, done time.Time)

	// Filled by the phases.
	lat      []int64      // open loop: due→response per acked operation
	dueAt    []int64      // open loop: the operation's due time, from the phase start
	schedLag []int64      // open loop: how late a send was, with the connection free
	behind   []int64      // open loop: how far behind its due time each send was
	acked    atomic.Int64 // closed loop: operations acknowledged so far (read while running)
	sent     int          // operations attempted in the phase
	failed   int          // operations that errored or were refused
	inflight int          // stream index in flight when the connection died; -1 if none
	err      error        // first failure, for the report
}

var checkpointReq = appendRequest(nil, "POST", "/v1/checkpoint", []byte{})

func (l *lane) reset() {
	l.lat, l.dueAt, l.schedLag, l.behind = l.lat[:0], l.dueAt[:0], l.schedLag[:0], l.behind[:0]
	l.acked.Store(0)
	l.sent, l.failed, l.err = 0, 0, nil
	l.inflight = -1
}

// request returns the lane's next request, or nil when a write lane's
// stream is exhausted.
func (l *lane) request() []byte {
	if l.stream == nil {
		return l.get
	}
	if l.next >= l.stream.Len() {
		return nil
	}
	return l.stream.Request(l.next)
}

// send performs one operation and classifies the outcome. ok is false
// when the operation failed or was refused.
func (l *lane) send(req []byte) (done time.Time, ok bool) {
	l.sent++
	if l.stream != nil {
		l.inflight = l.next
	}
	status, body, err := l.c.do(req)
	done = time.Now()
	if err != nil || status != http.StatusOK {
		l.failed++
		if l.err == nil {
			if err == nil {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
			}
			l.err = err
		}
		return done, false
	}
	if l.stream != nil {
		l.next++
		l.inflight = -1
	} else if l.onRead != nil {
		l.onRead(body, done)
	}
	return done, true
}

// openLoop sends n operations at a fixed interval starting at start.
// Operation k is due at start + k·interval whatever happened to the
// ones before it, and its latency runs from that due time: when the
// server stalls, the operations queued behind the stall are charged
// the wait (no coordinated omission). The connection is synchronous,
// so an operation due while the previous one is outstanding is sent
// the moment the connection frees up.
func (l *lane) openLoop(start time.Time, interval time.Duration, n int) {
	l.reset()
	free := start // when the connection last became free
	for k := 0; k < n; k++ {
		if k == l.checkpointAt {
			if _, _, err := l.c.do(checkpointReq); err != nil && l.err == nil {
				l.err = fmt.Errorf("checkpoint: %w", err)
			}
			free = time.Now()
		}
		req := l.request()
		if req == nil {
			break
		}
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sentAt := time.Now()
		// Lateness the generator owns: the send happened after both the
		// due time and the moment the connection was free.
		ready := due
		if free.After(ready) {
			ready = free
		}
		l.schedLag = append(l.schedLag, int64(sentAt.Sub(ready)))
		l.behind = append(l.behind, int64(sentAt.Sub(due)))
		done, ok := l.send(req)
		free = done
		if ok {
			l.lat = append(l.lat, int64(done.Sub(due)))
			l.dueAt = append(l.dueAt, int64(time.Duration(k)*interval))
		} else if l.inflight >= 0 {
			return // the connection is gone; nothing more can be sent
		}
	}
}

// closedLoop sends back to back until the deadline: the next request
// leaves when the previous response has arrived. With keepGoing the
// lane carries on past the deadline until the connection fails — the
// durability check kills the daemon under it — and only operations
// completed before the deadline count towards the phase.
func (l *lane) closedLoop(deadline time.Time, keepGoing bool) {
	l.reset()
	counted := true
	for {
		req := l.request()
		if req == nil {
			break
		}
		t0 := time.Now()
		if counted && !t0.Before(deadline) {
			if !keepGoing {
				break
			}
			counted = false
		}
		sentBefore, failedBefore := l.sent, l.failed
		_, ok := l.send(req)
		if !counted {
			l.sent, l.failed = sentBefore, failedBefore // the kill window is not part of the phase
			if !ok {
				break
			}
			continue
		}
		if ok {
			l.acked.Add(1)
		} else if l.inflight >= 0 {
			break
		}
	}
}
