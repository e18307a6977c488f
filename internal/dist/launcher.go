package dist

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// exit is one supervised rank's termination report.
type exit struct {
	rank int
	err  error
}

// announceSink is rank 0's stdout sink: it reassembles lines, delivers
// the first announce line's address on addrCh, and forwards everything to
// out. It is an io.Writer (not a StdoutPipe scanner) deliberately — exec
// drains a Stdout writer completely before Wait returns, whereas Wait
// closes a StdoutPipe on process exit and races any concurrent reader,
// losing the final lines under load.
type announceSink struct {
	mu        sync.Mutex
	buf       []byte
	out       io.Writer
	addrCh    chan string
	announced bool
}

func (a *announceSink) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf = append(a.buf, p...)
	for {
		i := bytes.IndexByte(a.buf, '\n')
		if i < 0 {
			break
		}
		line := string(a.buf[:i])
		a.buf = a.buf[i+1:]
		if !a.announced {
			if rest, ok := strings.CutPrefix(line, AnnouncePrefix); ok {
				a.announced = true
				a.addrCh <- strings.TrimSpace(rest)
			}
		}
		if a.out != nil {
			fmt.Fprintln(a.out, line)
		}
	}
	return len(p), nil
}

// Launch spawns a local N-rank run of the given swrank binary and
// supervises it. Rank 0 gets an ephemeral listen address and announces the
// bound address on stdout as its first act, before it builds anything; the
// launcher parses the announce line and starts ranks 1..N-1 with that
// address at once, so every rank builds its mesh concurrently.
//
// Failure policy: the first rank to exit abnormally (non-zero status or
// killed by a signal) is the culprit; every other rank is killed
// immediately and the returned error names the culprit rank. The whole
// launch is bounded by timeout — a hung rank is killed and reported rather
// than waited on forever. A nil return means every rank exited zero.
func Launch(bin string, ranks int, commonArgs []string, timeout time.Duration, stdout, stderr io.Writer) error {
	if ranks < 1 {
		return fmt.Errorf("dist: launch needs at least 1 rank, got %d", ranks)
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()

	rankArgs := func(rank int, addr0 string) []string {
		return append(append([]string{}, commonArgs...),
			"-rank", strconv.Itoa(rank), "-ranks", strconv.Itoa(ranks), "-addr0", addr0)
	}

	cmds := make([]*exec.Cmd, ranks)
	exits := make(chan exit, ranks)
	var wg sync.WaitGroup
	startSupervised := func(rank int, cmd *exec.Cmd) error {
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("dist: starting rank %d: %w", rank, err)
		}
		cmds[rank] = cmd
		wg.Add(1)
		go func() {
			defer wg.Done()
			exits <- exit{rank, cmd.Wait()}
		}()
		return nil
	}
	killAll := func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	}
	// Always reap every started child before returning, so no zombie or
	// stray writer to our pipes outlives Launch.
	defer func() {
		killAll()
		wg.Wait()
	}()

	// Rank 0: ephemeral port, stdout scanned for the announce line and
	// forwarded onward.
	cmd0 := exec.Command(bin, rankArgs(0, "127.0.0.1:0")...)
	cmd0.Stderr = stderr
	addrCh := make(chan string, 1)
	cmd0.Stdout = &announceSink{out: stdout, addrCh: addrCh}
	if err := startSupervised(0, cmd0); err != nil {
		return err
	}

	var addr0 string
	select {
	case addr0 = <-addrCh:
	case e := <-exits:
		// Rank 0 may have announced and then exited cleanly before this
		// select ran (e.g. a 1-rank run): the announce send happens-before
		// its exit report, so if the address isn't ready now it never came.
		select {
		case addr0 = <-addrCh:
			exits <- e // re-queue for the supervision loop below
		default:
			return fmt.Errorf("dist: rank 0 exited before announcing: %v", e.err)
		}
	case <-deadline.C:
		return fmt.Errorf("dist: rank 0 did not announce within %s", timeout)
	}

	for r := 1; r < ranks; r++ {
		cmd := exec.Command(bin, rankArgs(r, addr0)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := startSupervised(r, cmd); err != nil {
			return err
		}
	}

	// Supervision: collect all exits. On the first abnormal exit, drain
	// briefly so near-simultaneous failures are all seen — a killed rank
	// and the peers that witnessed the broken connection race to exit, and
	// the actual culprit (the signal-killed process) may be reported to us
	// after a witness. Then kill the survivors and name the culprit.
	for done := 0; done < ranks; {
		select {
		case e := <-exits:
			done++
			if e.err == nil {
				continue
			}
			failed := []exit{e}
			grace := time.After(1 * time.Second)
		drain:
			for done < ranks {
				select {
				case e2 := <-exits:
					done++
					if e2.err != nil {
						failed = append(failed, e2)
					}
				case <-grace:
					break drain
				}
			}
			killAll()
			culprit := pickCulprit(failed)
			return fmt.Errorf("dist: rank %d failed: %w (remaining ranks killed)", culprit.rank, culprit.err)
		case <-deadline.C:
			killAll()
			return fmt.Errorf("dist: launch exceeded %s; all ranks killed", timeout)
		}
	}
	return nil
}

// pickCulprit chooses which of several near-simultaneous failures to blame:
// a signal-killed rank (a crashed/killed process) over a rank that exited
// non-zero — the latter are usually witnesses reporting the broken link —
// and the earliest-reported failure within each class.
func pickCulprit(failed []exit) exit {
	for _, e := range failed {
		if ee, ok := e.err.(*exec.ExitError); ok {
			if ws, ok := ee.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				return e
			}
		}
	}
	return failed[0]
}
