package nettrans

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// FuzzDecodeFrame drives hostile bytes through the full inbound path
// a connection exercises: the length+CRC frame envelope, the protocol
// frame decoder, and the handshake validator. Nothing may panic, and
// every frame that round-trips must decode to what was encoded.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range seedFrames() {
		f.Add(wire.EncodeFrame(encodeFrame(s)))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Envelope layer: arbitrary bytes must decode or be rejected,
		// never panic; only CRC-clean payloads reach the frame decoder.
		payload, ok := wire.DecodeFrame(data)
		if ok {
			fr, err := decodeFrame(payload)
			if err == nil {
				_ = checkHello(fr, 0, 4, 1)
				// Round-trip: a frame the decoder accepts re-encodes
				// to the exact payload (canonical form is unique).
				if got := encodeFrame(fr); !bytes.Equal(got, payload) {
					t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, payload)
				}
			}
		}
		// Raw frame decoder must also hold without the envelope.
		if fr, err := decodeFrame(data); err == nil {
			_ = checkHello(fr, 1, 2, 7)
			if got := encodeFrame(fr); !bytes.Equal(got, data) {
				t.Fatalf("re-encode mismatch (raw):\n got %x\nwant %x", got, data)
			}
		}
	})
}

// seedFrames covers every frame kind plus edge-case field values.
func seedFrames() []frame {
	return []frame{
		{Kind: kHello, Src: 1, Dst: 0, Size: 4, Epoch: 1, Seq: 42},
		{Kind: kHello, Src: 3, Dst: 2, Size: 4, Epoch: ^uint64(0), Seq: ^uint64(0)},
		{Kind: kHello, Src: 0, Dst: 3, Size: 4, Epoch: 1, Crashed: true},
		{Kind: kWelcome, Epoch: 1, Seq: 42},
		{Kind: kData, Src: 1, Dst: 0, Tag: 5, Seq: 7, Sync: true, Data: []byte("payload")},
		{Kind: kData, Src: 0, Dst: 3, Tag: -1, Seq: 1, Data: []byte{}},
		{Kind: kAck, Seq: 99},
		{Kind: kMatchAck, Seq: 100},
		{Kind: kHeartbeat},
		{Kind: kBye, Crashed: true, Reason: "panic: boom"},
		{Kind: kBye},
	}
}

// TestWriteFuzzCorpus regenerates the committed FuzzDecodeFrame seed
// corpus (run explicitly with WRITE_FUZZ_CORPUS=1; skipped otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{
		"seed-hello", "seed-hello-maxepoch", "seed-hello-lastgasp", "seed-welcome", "seed-data-sync",
		"seed-data-empty", "seed-ack", "seed-matchack", "seed-heartbeat",
		"seed-bye-crashed", "seed-bye-clean",
	}
	for i, fr := range seedFrames() {
		write(names[i], wire.EncodeFrame(encodeFrame(fr)))
	}
	// Envelope with a corrupted CRC over a valid payload.
	env := wire.EncodeFrame(encodeFrame(frame{Kind: kHeartbeat}))
	env[4] ^= 0xff
	write("seed-bad-crc", env)
	// Bare frame payloads without the envelope.
	write("seed-raw-data", encodeFrame(frame{Kind: kData, Src: 2, Dst: 1, Tag: 3, Seq: 9, Data: []byte("x")}))
	write("seed-unknown-kind", []byte{0x63})
	write("seed-truncated-hello", encodeFrame(frame{Kind: kHello, Src: 1, Dst: 0, Size: 4, Epoch: 1, Seq: 42})[:3])
}
