package dist

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultTimeout bounds every blocking network operation (connect, frame
// read, frame write) when the caller does not set one. A rank that dies
// mid-step therefore surfaces at its peers as a deadline error naming the
// dead link within this bound — never a hang.
const DefaultTimeout = 30 * time.Second

// Comm is one rank's view of the process group: persistent TCP links to its
// neighbors (and to rank 0 for collectives), each driven by a dedicated
// writer and reader goroutine so posted operations progress while the rank
// computes.
//
// The completion semantics mirror MPI's nonblocking pairs: PostSend and
// PostRecv enqueue and return immediately; Wait blocks until every
// outstanding operation on every link has completed (or failed). Matching
// is in-order per link — the k-th posted receive on a link consumes the
// k-th arriving data frame — with the frame tag checked against the posted
// tag as a protocol-consistency assertion. That is sufficient here because
// both endpoints of a link execute the same deterministic program order
// (the solver's exchange schedule).
//
// Only one goroutine (the rank's driver) may call Post*/Wait/collectives;
// the writer/reader goroutines are internal.
type Comm struct {
	Rank int
	N    int

	// Timeout bounds each network operation. Set by Connect.
	Timeout time.Duration

	links []*link // indexed by peer rank; nil where no link exists

	wg        sync.WaitGroup // outstanding posted operations
	closeOnce sync.Once

	errMu    sync.Mutex
	firstErr error

	collSeq uint32 // collective sequence number, advances identically on all ranks

	// Per-peer one-element scratch for scalar collectives, allocated once.
	scalarIn  [][]float64
	scalarOut [][]float64

	// Telemetry (nil-safe): byte counters cover every frame on every link,
	// the wait timer every Wait call (its histogram is the wait-time
	// distribution the ISSUE asks for).
	BytesSent *telemetry.Counter
	BytesRecv *telemetry.Counter
	WaitTimer *telemetry.Timer
}

// link is one persistent connection to a peer with its IO goroutines' work
// queues. Buffers wbuf/rbuf are owned by the writer/reader goroutine
// respectively and reused across frames.
type link struct {
	peer  int
	conn  net.Conn
	sendQ chan sendReq
	recvQ chan recvReq
	wbuf  []byte
	rbuf  []byte
}

type sendReq struct {
	tag  uint32
	data []float64 // must stay untouched until the next Wait returns
}

type recvReq struct {
	tag uint32
	buf []float64 // filled by the reader; exact expected length
}

// queueDepth sizes the per-link work queues. Four in-flight operations per
// link per RK substep (post send + post recv on each of H and U would be 2;
// collectives add a couple) never approach this, so Post* never blocks in
// practice.
const queueDepth = 16

// EnableTelemetry attaches per-rank instruments to reg:
// dist_rank<k>_bytes_sent_total / _bytes_recv_total counters and the
// dist_rank<k>_wait_seconds timer (count, exact total, log-scale
// histogram). Safe to call before links are started.
func (c *Comm) EnableTelemetry(reg *telemetry.Registry) {
	r := strconv.Itoa(c.Rank)
	c.BytesSent = reg.Counter("dist_rank" + r + "_bytes_sent_total")
	c.BytesRecv = reg.Counter("dist_rank" + r + "_bytes_recv_total")
	c.WaitTimer = reg.Timer("dist_rank" + r + "_wait_seconds")
}

func newComm(rank, n int, timeout time.Duration) *Comm {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c := &Comm{Rank: rank, N: n, Timeout: timeout, links: make([]*link, n)}
	c.scalarIn = make([][]float64, n)
	c.scalarOut = make([][]float64, n)
	for i := 0; i < n; i++ {
		c.scalarIn[i] = make([]float64, 1)
		c.scalarOut[i] = make([]float64, 1)
	}
	return c
}

// addLink registers conn as the persistent link to peer. TCP_NODELAY is set
// so small halo frames leave immediately instead of waiting for Nagle
// coalescing.
func (c *Comm) addLink(peer int, conn net.Conn) error {
	if peer < 0 || peer >= c.N || peer == c.Rank {
		return fmt.Errorf("dist: rank %d: invalid peer %d", c.Rank, peer)
	}
	if c.links[peer] != nil {
		return fmt.Errorf("dist: rank %d: duplicate link to peer %d", c.Rank, peer)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.links[peer] = &link{
		peer:  peer,
		conn:  conn,
		sendQ: make(chan sendReq, queueDepth),
		recvQ: make(chan recvReq, queueDepth),
	}
	return nil
}

// start launches the writer/reader goroutines of every registered link.
// After start, the connections belong exclusively to those goroutines.
func (c *Comm) start() {
	for _, l := range c.links {
		if l != nil {
			go c.writer(l)
			go c.reader(l)
		}
	}
}

// Close tears the links down. Outstanding operations fail fast; a peer
// blocked on this rank gets a connection error rather than a timeout.
// Calls after the first are no-ops.
func (c *Comm) Close() {
	c.closeOnce.Do(func() {
		for _, l := range c.links {
			if l != nil {
				close(l.sendQ)
				close(l.recvQ)
				l.conn.Close()
			}
		}
	})
}

// fail records the first error. Subsequent operations complete immediately
// without touching the network, so a dead peer costs one timeout, not one
// per posted operation.
func (c *Comm) fail(peer int, err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("dist: rank %d: link to rank %d: %w", c.Rank, peer, err)
	}
	c.errMu.Unlock()
}

// Err returns the sticky first link error, if any.
func (c *Comm) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

func (c *Comm) writer(l *link) {
	for req := range l.sendQ {
		if c.Err() != nil {
			c.wg.Done()
			continue
		}
		n := 8 * len(req.data)
		if cap(l.wbuf) < headerSize+n {
			l.wbuf = make([]byte, headerSize+n)
		}
		l.wbuf = l.wbuf[:headerSize+n]
		putHeader(l.wbuf, header{Type: frameData, Sender: uint32(c.Rank), Tag: req.tag, Length: uint32(n)})
		putFloats(l.wbuf[headerSize:], req.data)
		l.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
		if _, err := l.conn.Write(l.wbuf); err != nil {
			c.fail(l.peer, err)
		} else {
			c.BytesSent.Add(int64(headerSize + n))
		}
		c.wg.Done()
	}
}

func (c *Comm) reader(l *link) {
	var hdr [headerSize]byte
	for req := range l.recvQ {
		if c.Err() != nil {
			c.wg.Done()
			continue
		}
		l.conn.SetReadDeadline(time.Now().Add(c.Timeout))
		h, err := readHeader(l.conn, hdr[:])
		switch {
		case err != nil:
			c.fail(l.peer, err)
		case h.Type != frameData:
			c.fail(l.peer, fmt.Errorf("unexpected frame type %d", h.Type))
		case int(h.Sender) != l.peer:
			c.fail(l.peer, fmt.Errorf("frame sender %d on link to %d", h.Sender, l.peer))
		case h.Tag != req.tag:
			c.fail(l.peer, fmt.Errorf("frame tag %#x, expected %#x (protocol desync)", h.Tag, req.tag))
		case int(h.Length) != 8*len(req.buf):
			c.fail(l.peer, fmt.Errorf("frame length %d, expected %d", h.Length, 8*len(req.buf)))
		default:
			if cap(l.rbuf) < int(h.Length) {
				l.rbuf = make([]byte, h.Length)
			}
			l.rbuf = l.rbuf[:h.Length]
			if _, err := io.ReadFull(l.conn, l.rbuf); err != nil {
				c.fail(l.peer, fmt.Errorf("truncated payload: %w", err))
			} else {
				getFloats(req.buf, l.rbuf)
				c.BytesRecv.Add(int64(headerSize + int(h.Length)))
			}
		}
		c.wg.Done()
	}
}

// PostSend enqueues data for transmission to peer and returns immediately.
// The slice must not be modified until the next Wait returns. Errors
// (including a missing link) surface at Wait.
func (c *Comm) PostSend(peer int, tag uint32, data []float64) {
	l := c.linkTo(peer)
	if l == nil {
		return
	}
	c.wg.Add(1)
	l.sendQ <- sendReq{tag: tag, data: data}
}

// PostRecv registers buf to receive the next data frame from peer and
// returns immediately. The frame's length must equal len(buf) exactly; the
// reader goroutine fills buf in place, so it must not be read until the
// next Wait returns.
func (c *Comm) PostRecv(peer int, tag uint32, buf []float64) {
	l := c.linkTo(peer)
	if l == nil {
		return
	}
	c.wg.Add(1)
	l.recvQ <- recvReq{tag: tag, buf: buf}
}

func (c *Comm) linkTo(peer int) *link {
	if peer < 0 || peer >= c.N || c.links[peer] == nil {
		c.fail(peer, fmt.Errorf("no link"))
		return nil
	}
	return c.links[peer]
}

// Wait blocks until every posted operation has completed, then reports the
// first link error (sticky). Because every network operation carries a
// deadline, Wait returns within O(Timeout) even when a peer is dead.
func (c *Comm) Wait() error {
	ctx := c.WaitTimer.Start()
	c.wg.Wait()
	ctx.Stop()
	return c.Err()
}

// collTag returns the next tag in the collective tag space. Collective call
// sequences are identical on every rank (same program), so both endpoints
// of every link agree on the tag.
func (c *Comm) collTag() uint32 {
	c.collSeq++
	return 0x8000_0000 | c.collSeq
}

// allreduce runs a rank-0-rooted reduce-then-broadcast of one scalar.
func (c *Comm) allreduce(x float64, combine func(a, b float64) float64) (float64, error) {
	if c.N == 1 {
		return x, nil
	}
	tagUp, tagDown := c.collTag(), c.collTag()
	if c.Rank == 0 {
		for r := 1; r < c.N; r++ {
			c.PostRecv(r, tagUp, c.scalarIn[r])
		}
		if err := c.Wait(); err != nil {
			return 0, err
		}
		acc := x
		for r := 1; r < c.N; r++ {
			acc = combine(acc, c.scalarIn[r][0])
		}
		for r := 1; r < c.N; r++ {
			c.scalarOut[r][0] = acc
			c.PostSend(r, tagDown, c.scalarOut[r])
		}
		return acc, c.Wait()
	}
	c.scalarOut[0][0] = x
	c.PostSend(0, tagUp, c.scalarOut[0])
	c.PostRecv(0, tagDown, c.scalarIn[0])
	if err := c.Wait(); err != nil {
		return 0, err
	}
	return c.scalarIn[0][0], nil
}

// AllreduceSum returns the sum of x over all ranks, combined in rank order
// on rank 0 — a fixed reduction order, so global invariants are
// bitwise-reproducible run to run.
func (c *Comm) AllreduceSum(x float64) (float64, error) {
	return c.allreduce(x, func(a, b float64) float64 { return a + b })
}

// AllreduceMax returns the maximum of x over all ranks.
func (c *Comm) AllreduceMax(x float64) (float64, error) {
	return c.allreduce(x, func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	})
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	_, err := c.AllreduceSum(0)
	return err
}

// p2pTag is the constant tag of the blocking Send/Recv pair. A fresh
// collTag here would desynchronize the collective sequence (a gather makes
// rank 0 receive N-1 times while each sender sends once); the in-order
// matching per link already pairs the operations, so a constant tag is the
// correct consistency check.
const p2pTag = 0x4000_0000

// Send transmits data to peer and waits for local completion. There must be
// no other outstanding operations (Wait drains them all).
func (c *Comm) Send(peer int, data []float64) error {
	c.PostSend(peer, p2pTag, data)
	return c.Wait()
}

// Recv fills buf with the next frame from peer (which must have been sent
// with the matching Send in the same program position).
func (c *Comm) Recv(peer int, buf []float64) error {
	c.PostRecv(peer, p2pTag, buf)
	return c.Wait()
}
