package launch

import (
	"strings"
	"testing"
)

// setJobEnv populates the SPMD child environment with t.Setenv so the
// test runner restores it; unnamed variables are cleared.
func setJobEnv(t *testing.T, kv map[string]string) {
	t.Helper()
	for _, k := range []string{rankEnv, sizeEnv, registryEnv, epochEnv, collectorEnv} {
		t.Setenv(k, kv[k])
	}
}

// TestFromEnvTelemetryRoundTrip: what spawn renders into a child's
// environment is exactly what the child decodes.
func TestFromEnvTelemetryRoundTrip(t *testing.T) {
	want := child{
		Rank: 2, Size: 4, Registry: "/tmp/reg", Epoch: 17,
		Collector: "http://127.0.0.1:9090",
	}
	kv := map[string]string{}
	for _, e := range want.env() {
		k, v, _ := strings.Cut(e, "=")
		kv[k] = v
	}
	setJobEnv(t, kv)

	c, ok, err := fromEnv()
	if err != nil || !ok {
		t.Fatalf("fromEnv = %v, %v", ok, err)
	}
	if c != want {
		t.Fatalf("round trip mangled the child: got %+v, want %+v", c, want)
	}
}

func TestFromEnvNotAChild(t *testing.T) {
	setJobEnv(t, nil)
	if _, ok, err := fromEnv(); ok || err != nil {
		t.Fatalf("empty env should mean not-a-child, got ok=%v err=%v", ok, err)
	}
}

func TestFromEnvRejectsBadRank(t *testing.T) {
	setJobEnv(t, map[string]string{
		rankEnv: "7", sizeEnv: "4",
		registryEnv: "/tmp/reg", epochEnv: "1",
	})
	if _, _, err := fromEnv(); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}
