package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(3)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	code, body := get(t, base+"/metrics")
	var m map[string]any
	if code != 200 || json.Unmarshal(body, &m) != nil || m["hits"] != float64(3) {
		t.Fatalf("/metrics: code %d body %s", code, body)
	}

	code, body = get(t, base+"/")
	if code != 200 || !strings.Contains(string(body), "/debug/pprof/heap") {
		t.Fatalf("index: code %d does not list the pprof routes:\n%s", code, body)
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}

	code, _ = get(t, base+"/nope")
	if code != 404 {
		t.Fatalf("/nope: code %d, want 404", code)
	}
}

// TestServerShutdown: Shutdown and Close are idempotent, release the
// port (a second server can bind the same address), and a closed
// server refuses connections.
func TestServerShutdown(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr
	if code, _ := get(t, "http://"+addr+"/metrics"); code != 200 {
		t.Fatalf("/metrics before shutdown: code %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("request succeeded against a shut-down server")
	}
	// The listener is truly gone: the exact address can be rebound.
	srv2, err := Serve(addr, nil)
	if err != nil {
		t.Fatalf("rebind %s after shutdown: %v", addr, err)
	}
	srv2.Close()
}

// TestServerNilSources: a server with no registry still serves pprof
// and an empty /metrics.
func TestServerNilSources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	code, body := get(t, base+"/metrics")
	if code != 200 || strings.TrimSpace(string(body)) != "{}" {
		t.Fatalf("/metrics nil registry: code %d body %s", code, body)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ nil registry: code %d", code)
	}
}
