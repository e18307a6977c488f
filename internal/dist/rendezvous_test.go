package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// Rank 0 must announce, and a leaf must be able to dial it, before rank 0
// has its owner map: that is what lets every rank build its mesh at once.
// The leaf dials through a relay that reports when its connection to rank
// 0 is up; rank 0's owner callback refuses to return until then, so a rank
// 0 that computed the owner map before listening would deadlock here.
func TestRendezvousOwnerMapAfterAnnounceAndDial(t *testing.T) {
	owner := []int32{0, 1, 1, 0}
	addrCh := make(announceWriter, 1)
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	dialed := make(chan struct{})
	go func() {
		in, err := relay.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", <-addrCh)
		if err != nil {
			in.Close()
			return
		}
		close(dialed)
		go func() { io.Copy(out, in); out.Close() }()
		io.Copy(in, out)
		in.Close()
	}()

	type result struct {
		b   *Bootstrap
		err error
	}
	results := make(chan result, 2)
	go func() {
		b, err := Connect(Config{Rank: 0, N: 2, Addr0: "127.0.0.1:0", Announce: addrCh,
			Timeout: 10 * time.Second}, func() ([]int32, error) {
			select {
			case <-dialed:
				return owner, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("owner map requested before the leaf could dial")
			}
		})
		results <- result{b, err}
	}()
	go func() {
		b, err := Connect(Config{Rank: 1, N: 2, Addr0: relay.Addr().String(), Timeout: 10 * time.Second}, nil)
		results <- result{b, err}
	}()
	var boots [2]*Bootstrap
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		boots[r.b.Comm.Rank] = r.b
	}
	if got := fmt.Sprint(boots[1].Owner); got != fmt.Sprint(owner) {
		t.Fatalf("leaf owner map %s, want %v", got, owner)
	}
	// The relayed link carries traffic like any other.
	for r, b := range boots {
		if err := b.ConnectPeers([]int{1 - r}); err != nil {
			t.Fatal(err)
		}
		defer b.Comm.Close()
	}
	boots[0].Comm.PostSend(1, 3, []float64{42})
	in := make([]float64, 1)
	boots[1].Comm.PostRecv(0, 3, in)
	for _, b := range boots {
		if err := b.Comm.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if in[0] != 42 {
		t.Fatalf("leaf received %v, want 42", in[0])
	}
}

// A failed owner computation on rank 0 (its mesh build, its partition) is
// Connect's error, not a hang or a roster with no map in it.
func TestRendezvousOwnerErrorReturned(t *testing.T) {
	boom := errors.New("mesh build failed")
	_, err := Connect(Config{Rank: 0, N: 2, Addr0: "127.0.0.1:0", Timeout: 10 * time.Second},
		func() ([]int32, error) { return nil, boom })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("want rank 0's owner error, got: %v", err)
	}
}

func TestConnectOwnerArgumentChecks(t *testing.T) {
	if _, err := Connect(Config{Rank: 0, N: 2, Addr0: "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("rank 0 without an owner callback accepted")
	}
	if _, err := Connect(Config{Rank: 1, N: 2, Addr0: "127.0.0.1:1"}, ownerMap([]int32{0})); err == nil {
		t.Fatal("leaf with an owner callback accepted")
	}
}
