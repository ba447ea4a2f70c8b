package obs_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// TestServerPprofSmoke: the index advertises every profiling route,
// and a short CPU capture plus a heap snapshot fetched over HTTP both
// decode with the in-repo pprof reader. External test package so the
// decoder can be imported without a cycle (prof depends on obs).
func TestServerPprofSmoke(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, ep := range []string{
		"profile", "heap", "allocs", "goroutine",
		"block", "mutex", "threadcreate", "cmdline", "symbol", "trace",
	} {
		if !strings.Contains(string(index), "/debug/pprof/"+ep) {
			t.Errorf("index does not list /debug/pprof/%s:\n%s", ep, index)
		}
	}

	// Keep a CPU busy so the 1s window has something to sample.
	stop := make(chan struct{})
	go func() {
		x := 1.0
		for {
			select {
			case <-stop:
				return
			default:
				x = x*1.0000001 + 1
			}
		}
	}()
	defer close(stop)

	for _, tc := range []struct {
		url      string
		wantType string
	}{
		{base + "/debug/pprof/profile?seconds=1", "samples"},
		{base + "/debug/pprof/heap", "inuse_space"},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: code %d err %v", tc.url, resp.StatusCode, err)
		}
		p, err := prof.Parse(body)
		if err != nil {
			t.Fatalf("decoding %s: %v", tc.url, err)
		}
		found := false
		for _, st := range p.SampleTypes {
			if st.Type == tc.wantType {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: sample type %q missing from %v", tc.url, tc.wantType, p.SampleTypes)
		}
	}
}
