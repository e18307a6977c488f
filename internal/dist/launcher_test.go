package dist

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestFakeRank is not a real test: it is the child-process body for the
// launcher tests below (helper-process pattern — the test binary re-execs
// itself with -test.run pinned here). Launch appends "-rank N -ranks N
// -addr0 A" after our "--" separator, so they arrive as positional args
// and are parsed by hand. The DIST_FAKE_RANK env var selects the failure
// scenario being rehearsed.
func TestFakeRank(t *testing.T) {
	mode := os.Getenv("DIST_FAKE_RANK")
	if mode == "" {
		t.Skip("not a launcher child process")
	}
	rank := -1
	for i, a := range os.Args {
		if a == "-rank" && i+1 < len(os.Args) {
			fmt.Sscan(os.Args[i+1], &rank)
		}
	}
	if rank == 0 && mode != "noannounce" {
		fmt.Println(AnnouncePrefix + "127.0.0.1:1")
	}
	fmt.Printf("fake rank %d ran\n", rank)
	switch {
	case mode == "fail2" && rank == 2:
		os.Exit(3)
	case mode == "kill1" && rank == 1:
		// Die after the witness (rank 2) has already exited non-zero, so
		// pickCulprit must look past the first reported failure.
		time.Sleep(200 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	case mode == "kill1" && rank == 2:
		os.Exit(1)
	case mode == "leafexit" && rank == 1:
		os.Exit(4)
	case mode == "hang", mode == "leafexit":
		// leafexit: rank 0 (and any other leaf) waits out the rendezvous
		// for a hello rank 1 never sends.
		time.Sleep(time.Minute)
	}
	os.Exit(0)
}

// syncBuffer guards a bytes.Buffer against the concurrent per-rank copy
// goroutines that exec spawns for each child's stdout.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func launchSelf(t *testing.T, mode string, ranks int, timeout time.Duration, out io.Writer) error {
	t.Helper()
	t.Setenv("DIST_FAKE_RANK", mode)
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return Launch(bin, ranks, []string{"-test.run=^TestFakeRank$", "--"}, timeout, out, io.Discard)
}

func TestLaunchSuccessForwardsOutput(t *testing.T) {
	var out syncBuffer
	if err := launchSelf(t, "ok", 3, 30*time.Second, &out); err != nil {
		t.Fatalf("launch: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, AnnouncePrefix) {
		t.Errorf("announce line not forwarded:\n%s", got)
	}
	for r := 0; r < 3; r++ {
		if !strings.Contains(got, fmt.Sprintf("fake rank %d ran", r)) {
			t.Errorf("rank %d output missing:\n%s", r, got)
		}
	}
}

func TestLaunchNamesNonzeroExit(t *testing.T) {
	err := launchSelf(t, "fail2", 3, 30*time.Second, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("want error naming rank 2, got: %v", err)
	}
}

func TestLaunchPrefersSignaledCulprit(t *testing.T) {
	// Rank 2 exits non-zero immediately (the witness); rank 1 SIGKILLs
	// itself 200ms later (the culprit). The drain window must collect both
	// and blame the signal-killed one.
	err := launchSelf(t, "kill1", 3, 30*time.Second, io.Discard)
	if err == nil {
		t.Fatal("launch with a killed rank returned nil")
	}
	if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("want signal-killed rank 1 blamed, got: %v", err)
	}
}

// A leaf that dies before the rendezvous (its own mesh build failed, say)
// is named while rank 0 is still waiting for its hello — the launcher does
// not sit out the rendezvous deadline.
func TestLaunchNamesLeafFailingBeforeRendezvous(t *testing.T) {
	const timeout = 30 * time.Second
	start := time.Now()
	err := launchSelf(t, "leafexit", 3, timeout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("want error naming rank 1, got: %v", err)
	}
	if el := time.Since(start); el > timeout/3 {
		t.Fatalf("leaf failure took %v to surface (launch timeout %v)", el, timeout)
	}
}

func TestLaunchRank0ExitsWithoutAnnouncing(t *testing.T) {
	err := launchSelf(t, "noannounce", 2, 30*time.Second, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "before announcing") {
		t.Fatalf("want announce failure, got: %v", err)
	}
}

func TestLaunchTimeoutKillsHungRanks(t *testing.T) {
	start := time.Now()
	err := launchSelf(t, "hang", 2, 2*time.Second, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want timeout error, got: %v", err)
	}
	if el := time.Since(start); el > 15*time.Second {
		t.Fatalf("timeout took %v to enforce", el)
	}
}

func TestLaunchArgumentErrors(t *testing.T) {
	if err := Launch("/no/such/binary", 2, nil, time.Second, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "starting rank 0") {
		t.Fatalf("want start error, got: %v", err)
	}
	if err := Launch("true", 0, nil, time.Second, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "at least 1 rank") {
		t.Fatalf("want rank-count error, got: %v", err)
	}
}
