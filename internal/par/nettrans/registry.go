package nettrans

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
)

// File-based rendezvous: every rank publishes its listen address as
// `<dir>/rank-<r>` and peers poll for the files they need. The write
// is atomic (internal/durable) so a reader never observes a partial
// address, and the file carries the epoch so a stale registry from a
// previous incarnation is detected at handshake rather than trusted.
// A shared filesystem is the one piece of infrastructure a
// multi-process launch can always assume — the same assumption the
// checkpoint/resume layer already makes.

// publishAddr atomically writes rank's listen address into dir.
func publishAddr(dir string, rank int, network, addr string, epoch uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(dir, fmt.Sprintf("rank-%d", rank)), fmt.Appendf(nil, "%s %s %d\n", network, addr, epoch))
}

// readAddr reads one rank's published address, reporting ok=false when
// the rank has not published yet.
func readAddr(dir string, rank int) (network, addr string, epoch uint64, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank-%d", rank)))
	if os.IsNotExist(err) {
		return "", "", 0, false, nil
	}
	if err != nil {
		return "", "", 0, false, err
	}
	fields := strings.Fields(string(b))
	if len(fields) != 3 {
		return "", "", 0, false, fmt.Errorf("nettrans: malformed registry entry for rank %d", rank)
	}
	if _, err := fmt.Sscanf(fields[2], "%d", &epoch); err != nil {
		return "", "", 0, false, fmt.Errorf("nettrans: malformed registry epoch for rank %d", rank)
	}
	return fields[0], fields[1], epoch, true, nil
}

// waitAddr polls the registry for rank's address until it appears with
// the wanted epoch, the deadline passes, or stop closes. A published
// entry with a stale epoch keeps waiting — the peer's new incarnation
// will overwrite it.
func waitAddr(dir string, rank int, epoch uint64, deadline time.Time, stop <-chan struct{}) (string, error) {
	for {
		_, addr, e, ok, err := readAddr(dir, rank)
		if err == nil && ok && e == epoch {
			return addr, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if err == nil {
				err = fmt.Errorf("nettrans: rank %d never published (epoch %d)", rank, epoch)
			}
			return "", err
		}
		select {
		case <-stop:
			return "", fmt.Errorf("nettrans: transport closed while waiting for rank %d", rank)
		case <-time.After(20 * time.Millisecond):
		}
	}
}
