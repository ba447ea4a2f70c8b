package launch

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// OnSignal installs a SIGINT/SIGTERM handler that runs cleanup once
// and then exits with the conventional 128+signal status. It gives
// the command-line tools a graceful shutdown path: append the events
// stream's final record instead of dying with a stream that ends
// mid-run.
//
// The handler runs in its own goroutine; cleanup must therefore only
// touch state that is safe to read concurrently with the main run
// (the tracer and the reporter's Close are). A second signal during
// cleanup kills the process immediately — an operator mashing Ctrl-C
// is asking to leave now.
func OnSignal(cleanup func(sig os.Signal)) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "\n%s: shutting down (flushing telemetry)...\n", sig)
		done := make(chan struct{})
		go func() {
			cleanup(sig)
			close(done)
		}()
		select {
		case <-done:
		case again := <-ch:
			fmt.Fprintf(os.Stderr, "%s again: exiting immediately\n", again)
		}
		code := 128 + 15 // SIGTERM
		if sig == os.Interrupt {
			code = 128 + 2
		}
		os.Exit(code)
	}()
}
