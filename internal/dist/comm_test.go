package dist

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// announceWriter captures the rank-0 announce line and hands the bound
// address to the leaf goroutines.
type announceWriter chan string

func (w announceWriter) Write(p []byte) (int, error) {
	line := strings.TrimSpace(string(p))
	w <- strings.TrimPrefix(line, AnnouncePrefix)
	return len(p), nil
}

// runWorld runs an N-rank world through RunLocal, connecting each rank to
// the given peers (nil = all-to-all) before executing body. Any rank error
// fails the test.
func runWorld(t *testing.T, n int, owner []int32, peersOf func(rank int) []int, body func(b *Bootstrap) error) {
	t.Helper()
	runWorldBoot(t, n, owner, func(b *Bootstrap) error {
		peers := allPeers(b.Comm.Rank, n)
		if peersOf != nil {
			peers = peersOf(b.Comm.Rank)
		}
		if err := b.ConnectPeers(peers); err != nil {
			return err
		}
		return body(b)
	})
}

// runWorldBoot is runWorld without the peer-linking step: body receives the
// freshly rendezvoused Bootstrap and is responsible for ConnectPeers (e.g.
// via NewRankSolver).
func runWorldBoot(t *testing.T, n int, owner []int32, body func(b *Bootstrap) error) {
	t.Helper()
	if err := RunLocal(n, owner, body); err != nil {
		t.Fatal(err)
	}
}

// ownerMap is rank 0's owner callback for a precomputed map.
func ownerMap(owner []int32) func() ([]int32, error) {
	return func() ([]int32, error) { return owner, nil }
}

func allPeers(rank, n int) []int {
	var out []int
	for r := 0; r < n; r++ {
		if r != rank {
			out = append(out, r)
		}
	}
	return out
}

func TestRendezvousDistributesOwnerMap(t *testing.T) {
	owner := []int32{0, 1, 2, 0, 1, 2, 0, 1}
	runWorld(t, 3, owner, nil, func(b *Bootstrap) error {
		if len(b.Owner) != len(owner) {
			return fmt.Errorf("owner map length %d, want %d", len(b.Owner), len(owner))
		}
		for i := range owner {
			if b.Owner[i] != owner[i] {
				return fmt.Errorf("owner[%d] = %d, want %d", i, b.Owner[i], owner[i])
			}
		}
		return nil
	})
}

// Ring traffic through the posted-operation path: each rank sends its rank
// to the next and receives from the previous, with both operations in
// flight across one Wait.
func TestPostSendRecvRing(t *testing.T) {
	const n = 4
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i)
	}
	runWorld(t, n, owner, nil, func(b *Bootstrap) error {
		c := b.Comm
		next, prev := (c.Rank+1)%n, (c.Rank+n-1)%n
		for round := 0; round < 50; round++ {
			out := []float64{float64(c.Rank*1000 + round)}
			in := make([]float64, 1)
			tag := uint32(round)
			c.PostSend(next, tag, out)
			c.PostRecv(prev, tag, in)
			if err := c.Wait(); err != nil {
				return err
			}
			if want := float64(prev*1000 + round); in[0] != want {
				return fmt.Errorf("round %d: got %v, want %v", round, in[0], want)
			}
		}
		return nil
	})
}

func TestCollectives(t *testing.T) {
	const n = 4
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i)
	}
	runWorld(t, n, owner, nil, func(b *Bootstrap) error {
		c := b.Comm
		sum, err := c.AllreduceSum(float64(c.Rank + 1))
		if err != nil {
			return err
		}
		if sum != 10 { // 1+2+3+4
			return fmt.Errorf("allreduce sum %v, want 10", sum)
		}
		max, err := c.AllreduceMax(float64(c.Rank))
		if err != nil {
			return err
		}
		if max != n-1 {
			return fmt.Errorf("allreduce max %v, want %d", max, n-1)
		}
		return c.Barrier()
	})
}

// Star topology (only rank-0 links, the minimum ConnectPeers leaves in
// place): collectives must still work, and a posted op to an unlinked peer
// must fail cleanly at Wait rather than panic or hang.
func TestStarTopologyAndMissingLink(t *testing.T) {
	const n = 3
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i)
	}
	runWorld(t, n, owner, func(rank int) []int { return nil }, func(b *Bootstrap) error {
		c := b.Comm
		sum, err := c.AllreduceSum(1)
		if err != nil {
			return err
		}
		if sum != n {
			return fmt.Errorf("allreduce sum %v, want %d", sum, n)
		}
		if c.Rank == 1 {
			c.PostSend(2, 0, []float64{1})
			if err := c.Wait(); err == nil {
				return fmt.Errorf("send to unlinked peer succeeded")
			}
		}
		return nil
	})
}

// A rank that dies mid-protocol must surface at its peers as an error
// NAMING the dead rank, within the timeout — the no-hang guarantee the
// launcher's failure policy is built on.
func TestDeadPeerNamedWithinTimeout(t *testing.T) {
	owner := []int32{0, 1}
	addrCh := make(announceWriter, 1)
	results := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // rank 0: waits on a message rank 1 never sends
		defer wg.Done()
		b, err := Connect(Config{Rank: 0, N: 2, Addr0: "127.0.0.1:0",
			Announce: addrCh, Timeout: 10 * time.Second}, ownerMap(owner))
		if err != nil {
			results <- err
			return
		}
		if err := b.ConnectPeers([]int{1}); err != nil {
			results <- err
			return
		}
		defer b.Comm.Close()
		// Tighten the deadline now that links are up: rendezvous needed
		// slack, but the dead-peer detection bound is what we measure.
		b.Comm.Timeout = 1 * time.Second
		in := make([]float64, 4)
		start := time.Now()
		b.Comm.PostRecv(1, 7, in)
		err = b.Comm.Wait()
		if err == nil {
			results <- fmt.Errorf("wait on dead peer returned nil")
			return
		}
		if !strings.Contains(err.Error(), "rank 1") {
			results <- fmt.Errorf("error does not name the culprit: %v", err)
			return
		}
		if el := time.Since(start); el > 8*time.Second {
			results <- fmt.Errorf("dead peer took %v to surface", el)
			return
		}
		results <- nil
	}()
	go func() { // rank 1: completes rendezvous then drops dead
		defer wg.Done()
		b, err := Connect(Config{Rank: 1, N: 2, Addr0: <-addrCh, Timeout: 10 * time.Second}, nil)
		if err != nil {
			return
		}
		b.ConnectPeers([]int{0})
		b.Comm.Close() // abrupt death: all conns closed, nothing sent
	}()
	wg.Wait()
	if err := <-results; err != nil {
		t.Fatal(err)
	}
}

// Protocol desync (wrong tag) is detected, not silently mismatched.
func TestTagMismatchDetected(t *testing.T) {
	owner := []int32{0, 1}
	runWorld(t, 2, owner, nil, func(b *Bootstrap) error {
		c := b.Comm
		if c.Rank == 0 {
			c.PostSend(1, 111, []float64{1})
		} else {
			c.PostRecv(0, 222, make([]float64, 1))
		}
		err := c.Wait()
		if c.Rank == 1 {
			if err == nil {
				return fmt.Errorf("tag mismatch accepted")
			}
			if !strings.Contains(err.Error(), "desync") {
				return fmt.Errorf("unexpected error: %v", err)
			}
		}
		return nil
	})
}

func TestTelemetryCounters(t *testing.T) {
	owner := []int32{0, 1}
	runWorld(t, 2, owner, nil, func(b *Bootstrap) error {
		c := b.Comm
		reg := telemetry.NewRegistry()
		c.EnableTelemetry(reg)
		peer := 1 - c.Rank
		c.PostSend(peer, 5, []float64{1, 2, 3})
		c.PostRecv(peer, 5, make([]float64, 3))
		if err := c.Wait(); err != nil {
			return err
		}
		wantBytes := int64(headerSize + 24)
		if got := c.BytesSent.Value(); got != wantBytes {
			return fmt.Errorf("bytes sent %d, want %d", got, wantBytes)
		}
		if got := c.BytesRecv.Value(); got != wantBytes {
			return fmt.Errorf("bytes recv %d, want %d", got, wantBytes)
		}
		if c.WaitTimer.Count() != 1 {
			return fmt.Errorf("wait timer count %d, want 1", c.WaitTimer.Count())
		}
		return nil
	})
}
