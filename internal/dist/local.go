package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// RunLocal runs an n-rank world inside this process: one goroutine per
// rank, each performing the same Connect rendezvous over 127.0.0.1 that
// separate swrank processes perform, with owner as rank 0's cell->rank map.
// body receives the rank's freshly rendezvoused Bootstrap and is responsible
// for ConnectPeers (NewRankSolver does it). When a body returns, RunLocal
// tears down that rank's listener and links, so a rank that fails shows up
// at its peers as a link error at once rather than after DefaultTimeout.
//
// RunLocal returns when every rank has returned, with the errors of the
// failed ranks joined, each prefixed by its rank.
func RunLocal(n int, owner []int32, body func(b *Bootstrap) error) error {
	if n < 1 {
		return fmt.Errorf("dist: RunLocal needs at least one rank, got %d", n)
	}
	relay := &addrRelay{ready: make(chan struct{})}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := runLocalRank(rank, n, owner, relay, body); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
			}
		}(rank)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runLocalRank is one goroutine rank of RunLocal: rendezvous, body,
// teardown.
func runLocalRank(rank, n int, owner []int32, relay *addrRelay, body func(b *Bootstrap) error) error {
	cfg := Config{Rank: rank, N: n}
	var ownerFn func() ([]int32, error)
	if rank == 0 {
		cfg.Addr0 = "127.0.0.1:0"
		cfg.Announce = relay
		ownerFn = func() ([]int32, error) { return owner, nil }
	} else {
		<-relay.ready
		if relay.addr == "" {
			return fmt.Errorf("dist: rank 0 did not announce its address")
		}
		cfg.Addr0 = relay.addr
	}
	b, err := Connect(cfg, ownerFn)
	if rank == 0 {
		relay.set("") // releases the other ranks if rank 0 failed before announcing
	}
	if err != nil {
		return err
	}
	defer b.close()
	return body(b)
}

// addrRelay hands rank 0's announced listen address to the other ranks of
// a RunLocal world. It is rank 0's Config.Announce writer.
type addrRelay struct {
	once  sync.Once
	ready chan struct{}
	addr  string
}

func (a *addrRelay) Write(p []byte) (int, error) {
	a.set(strings.TrimPrefix(strings.TrimSpace(string(p)), AnnouncePrefix))
	return len(p), nil
}

// set publishes addr once; later calls are no-ops.
func (a *addrRelay) set(addr string) {
	a.once.Do(func() {
		a.addr = addr
		close(a.ready)
	})
}
