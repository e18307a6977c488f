package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// AnnouncePrefix starts the line rank 0 prints once its listener is bound;
// the launcher (and scripts/ci.sh) parse the address after it. Keeping the
// format in one place keeps the parser honest.
const AnnouncePrefix = "swrank rank 0 listening on "

// Config parameterizes Connect.
type Config struct {
	Rank int
	N    int
	// Addr0 is rank 0's listen address (host:port, port 0 for ephemeral)
	// on rank 0, and the address to dial on every other rank.
	Addr0 string
	// ListenAddr is where non-zero ranks bind their peer listener
	// (default "127.0.0.1:0").
	ListenAddr string
	// Timeout bounds every rendezvous step and every subsequent network
	// operation (default DefaultTimeout).
	Timeout time.Duration
	// Announce, when non-nil on rank 0, receives the AnnouncePrefix line.
	Announce io.Writer
}

// Bootstrap is the connected state Connect returns: the comm (rank-0 links
// established, goroutines NOT yet started), the owner map distributed by
// rank 0, and the roster of peer listener addresses for ConnectPeers.
type Bootstrap struct {
	Comm   *Comm
	Owner  []int32
	addrs  []string
	ln     net.Listener // non-zero ranks: peer listener, closed by ConnectPeers
	linked bool
}

// Connect performs the rendezvous phase. Rank 0 listens on cfg.Addr0,
// announces the bound address, and only then calls owner for the global
// cell->rank map, so the other ranks can start, build and dial while rank 0
// is still building; their hellos queue on the bound listener. Rank 0 then
// accepts a hello from every other rank and replies with the roster (every
// rank's peer-listener address) plus the owner map; other ranks dial rank 0
// with retry and backoff. owner is required on rank 0 and must be nil
// elsewhere; an error it returns is returned by Connect.
func Connect(cfg Config, owner func() ([]int32, error)) (*Bootstrap, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.N < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.N {
		return nil, fmt.Errorf("dist: invalid rank %d of %d", cfg.Rank, cfg.N)
	}
	if cfg.Rank == 0 {
		return connectRoot(cfg, owner)
	}
	if owner != nil {
		return nil, fmt.Errorf("dist: rank %d: owner map is rank 0's to provide", cfg.Rank)
	}
	return connectLeaf(cfg)
}

func connectRoot(cfg Config, ownerFn func() ([]int32, error)) (*Bootstrap, error) {
	if ownerFn == nil {
		return nil, fmt.Errorf("dist: rank 0 must provide the owner map")
	}
	ln, err := net.Listen("tcp", cfg.Addr0)
	if err != nil {
		return nil, fmt.Errorf("dist: rank 0 listen %s: %w", cfg.Addr0, err)
	}
	defer ln.Close()
	if cfg.Announce != nil {
		fmt.Fprintf(cfg.Announce, "%s%s\n", AnnouncePrefix, ln.Addr())
	}
	owner, err := ownerFn()
	if err != nil {
		return nil, fmt.Errorf("dist: rank 0 owner map: %w", err)
	}
	c := newComm(0, cfg.N, cfg.Timeout)
	b := &Bootstrap{Comm: c, Owner: owner, addrs: make([]string, cfg.N)}
	b.addrs[0] = ln.Addr().String()
	deadline := time.Now().Add(cfg.Timeout)
	var scratch []byte
	for got := 1; got < cfg.N; got++ {
		if d, ok := ln.(*net.TCPListener); ok {
			d.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: rank 0 rendezvous: %d of %d ranks checked in: %w", got-1, cfg.N-1, err)
		}
		conn.SetReadDeadline(deadline)
		var h header
		var payload []byte
		h, payload, _, err = readFrame(conn, scratch)
		scratch = payload
		if err != nil || h.Type != frameHello {
			conn.Close()
			return nil, fmt.Errorf("dist: rank 0 rendezvous: bad hello: %v (type %d)", err, h.Type)
		}
		rank, addr, err := parseHello(payload)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if int(h.Sender) != rank {
			conn.Close()
			return nil, fmt.Errorf("dist: hello rank %d in frame from sender %d", rank, h.Sender)
		}
		if err := c.addLink(rank, conn); err != nil {
			conn.Close()
			return nil, err
		}
		b.addrs[rank] = addr
	}
	roster := encodeRoster(b.addrs, owner)
	for r := 1; r < cfg.N; r++ {
		l := c.links[r]
		l.conn.SetWriteDeadline(deadline)
		var n int
		l.wbuf, n, err = writeFrame(l.conn, header{Type: frameRoster, Sender: 0}, roster, l.wbuf)
		if err != nil {
			return nil, fmt.Errorf("dist: rank 0 roster to rank %d: %w", r, err)
		}
		c.BytesSent.Add(int64(n))
	}
	return b, nil
}

func connectLeaf(cfg Config) (*Bootstrap, error) {
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d peer listener: %w", cfg.Rank, err)
	}
	deadline := time.Now().Add(cfg.Timeout)
	conn, err := dialRetry(cfg.Addr0, deadline)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("dist: rank %d dial rank 0 at %s: %w", cfg.Rank, cfg.Addr0, err)
	}
	c := newComm(cfg.Rank, cfg.N, cfg.Timeout)
	hello := encodeHello(cfg.Rank, ln.Addr().String())
	conn.SetWriteDeadline(deadline)
	if _, _, err := writeFrame(conn, header{Type: frameHello, Sender: uint32(cfg.Rank)}, hello, nil); err != nil {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("dist: rank %d hello: %w", cfg.Rank, err)
	}
	conn.SetReadDeadline(deadline)
	h, payload, _, err := readFrame(conn, nil)
	if err != nil || h.Type != frameRoster {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("dist: rank %d roster: %v (type %d)", cfg.Rank, err, h.Type)
	}
	addrs, owner, err := parseRoster(payload, cfg.N)
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, err
	}
	if err := c.addLink(0, conn); err != nil {
		conn.Close()
		ln.Close()
		return nil, err
	}
	return &Bootstrap{Comm: c, Owner: owner, addrs: addrs, ln: ln}, nil
}

// ConnectPeers establishes the remaining neighbor links (peers is this
// rank's halo-neighbor set, e.g. halo.ExchangeSpec.Peers — symmetric by
// construction) and starts every link's IO goroutines. Direction is
// deterministic: the higher rank dials the lower rank's listener. After
// ConnectPeers the Bootstrap's comm is fully operational.
func (b *Bootstrap) ConnectPeers(peers []int) error {
	if b.linked {
		return fmt.Errorf("dist: ConnectPeers called twice")
	}
	b.linked = true
	c := b.Comm
	deadline := time.Now().Add(c.Timeout)
	var expect []int // peers that will dial us
	for _, p := range peers {
		if p == c.Rank || p == 0 || c.links[p] != nil {
			continue // rank-0 links exist from rendezvous
		}
		if p < c.Rank {
			conn, err := dialRetry(b.addrs[p], deadline)
			if err != nil {
				b.close()
				return fmt.Errorf("dist: rank %d dial peer %d at %s: %w", c.Rank, p, b.addrs[p], err)
			}
			conn.SetWriteDeadline(deadline)
			if _, _, err := writeFrame(conn, header{Type: frameHello, Sender: uint32(c.Rank)},
				encodeHello(c.Rank, ""), nil); err != nil {
				conn.Close()
				b.close()
				return fmt.Errorf("dist: rank %d hello to peer %d: %w", c.Rank, p, err)
			}
			if err := c.addLink(p, conn); err != nil {
				conn.Close()
				b.close()
				return err
			}
		} else {
			expect = append(expect, p)
		}
	}
	sort.Ints(expect)
	var scratch []byte
	for range expect {
		if d, ok := b.ln.(*net.TCPListener); ok {
			d.SetDeadline(deadline)
		}
		conn, err := b.ln.Accept()
		if err != nil {
			b.close()
			return fmt.Errorf("dist: rank %d accepting peer links (want %v): %w", c.Rank, expect, err)
		}
		conn.SetReadDeadline(deadline)
		h, payload, _, err := readFrame(conn, scratch)
		scratch = payload
		if err != nil || h.Type != frameHello {
			conn.Close()
			b.close()
			return fmt.Errorf("dist: rank %d bad peer hello: %v", c.Rank, err)
		}
		rank, _, err := parseHello(payload)
		if err != nil || rank != int(h.Sender) || !contains(expect, rank) {
			conn.Close()
			b.close()
			return fmt.Errorf("dist: rank %d unexpected peer hello from rank %d (want one of %v)", c.Rank, rank, expect)
		}
		if err := c.addLink(rank, conn); err != nil {
			conn.Close()
			b.close()
			return err
		}
	}
	if b.ln != nil {
		b.ln.Close()
		b.ln = nil
	}
	c.start()
	return nil
}

func (b *Bootstrap) close() {
	if b.ln != nil {
		b.ln.Close()
		b.ln = nil
	}
	for _, l := range b.Comm.links {
		if l != nil {
			l.conn.Close()
		}
	}
}

// dialRetry dials addr with exponential backoff until the deadline — the
// rendezvous window during which the target process may not have bound its
// listener yet.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("deadline exceeded")
			}
			return nil, lastErr
		}
		d := remain
		if d > time.Second {
			d = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, d)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Hello payload: u32 rank, u16 addr length, addr bytes.
func encodeHello(rank int, addr string) []byte {
	b := make([]byte, 6+len(addr))
	binary.LittleEndian.PutUint32(b[0:], uint32(rank))
	binary.LittleEndian.PutUint16(b[4:], uint16(len(addr)))
	copy(b[6:], addr)
	return b
}

func parseHello(b []byte) (int, string, error) {
	if len(b) < 6 {
		return 0, "", fmt.Errorf("dist: short hello payload (%d bytes)", len(b))
	}
	rank := int(binary.LittleEndian.Uint32(b[0:]))
	n := int(binary.LittleEndian.Uint16(b[4:]))
	if len(b) != 6+n {
		return 0, "", fmt.Errorf("dist: hello payload length %d, want %d", len(b), 6+n)
	}
	return rank, string(b[6 : 6+n]), nil
}

// Roster payload: u32 nranks, per rank (u16 len + addr), u32 ncells,
// ncells little-endian int32 owners.
func encodeRoster(addrs []string, owner []int32) []byte {
	n := 4
	for _, a := range addrs {
		n += 2 + len(a)
	}
	n += 4 + 4*len(owner)
	b := make([]byte, 0, n)
	var u4 [4]byte
	var u2 [2]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(len(addrs)))
	b = append(b, u4[:]...)
	for _, a := range addrs {
		binary.LittleEndian.PutUint16(u2[:], uint16(len(a)))
		b = append(b, u2[:]...)
		b = append(b, a...)
	}
	binary.LittleEndian.PutUint32(u4[:], uint32(len(owner)))
	b = append(b, u4[:]...)
	for _, o := range owner {
		binary.LittleEndian.PutUint32(u4[:], uint32(o))
		b = append(b, u4[:]...)
	}
	return b
}

func parseRoster(b []byte, wantRanks int) ([]string, []int32, error) {
	bad := func(what string) ([]string, []int32, error) {
		return nil, nil, fmt.Errorf("dist: malformed roster: %s", what)
	}
	if len(b) < 4 {
		return bad("short")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n != wantRanks {
		return bad(fmt.Sprintf("%d ranks, want %d", n, wantRanks))
	}
	b = b[4:]
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return bad("truncated addr table")
		}
		al := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < al {
			return bad("truncated addr")
		}
		addrs[i] = string(b[:al])
		b = b[al:]
	}
	if len(b) < 4 {
		return bad("missing owner map")
	}
	nc := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != 4*nc {
		return bad(fmt.Sprintf("owner map %d bytes, want %d", len(b), 4*nc))
	}
	owner := make([]int32, nc)
	for i := range owner {
		owner[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return addrs, owner, nil
}
