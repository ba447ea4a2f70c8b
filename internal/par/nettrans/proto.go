// Package nettrans is the socket backend for the par runtime: each
// rank is its own OS process, and ranks exchange the same envelopes
// the in-process machine passes between mailboxes — over TCP or Unix
// sockets, framed with the wire package's length + CRC32C envelope.
//
// The design goal is that everything above the transport seam cannot
// tell the difference. Delivery is per-(src,dst) FIFO and
// exactly-once: the link protocol is at-least-once (reconnect with
// capped backoff, resume from the last cumulatively acknowledged
// sequence number) and the receiver dedupes on the sender's monotone
// sequence numbers. Each unordered pair of ranks shares one link that
// carries both directions: the lower rank dials and redials, the
// higher rank accepts, and the handshake tells each side how far the
// other has delivered. Failure detection is fail-stop: a peer is dead
// when it says so (crash goodbye) or goes silent past the liveness
// timeout — never merely because a connection dropped.
//
// Every protocol decision about one peer is made by its link core
// (link.go), a state machine with no socket, goroutine, lock or clock.
// The transport's loops (nettrans.go) own those and call the core with
// each event: a send, a handshaken connection, an inbound frame, a
// closed connection, a tick, a crash, Close. The tests run the same
// cores over an in-memory network on a modeled clock, a simulator that
// explores the protocol by seed.
package nettrans

import (
	"fmt"

	"repro/internal/wire"
)

// Frame kinds. Every frame on a connection is one wire.ReadFrame
// envelope whose payload starts with a kind byte.
const (
	kHello     = byte(1) // dialer → acceptor: who I am, who I want, what I delivered from you; or a last-gasp crash notice
	kWelcome   = byte(2) // acceptor → dialer: accepted; what I delivered from you
	kData      = byte(3) // either direction: one runtime envelope
	kAck       = byte(4) // either direction: cumulative delivery ack
	kMatchAck  = byte(5) // either direction: rendezvous send was matched
	kHeartbeat = byte(6) // either direction: liveness
	kBye       = byte(7) // either direction: clean finish or crash notice
)

// frame is the decoded form of any protocol frame; which fields are
// meaningful depends on Kind.
type frame struct {
	Kind    byte
	Src     int    // hello, data
	Dst     int    // hello, data
	Size    int    // hello: world size, for cross-checking configs
	Epoch   uint64 // hello, welcome
	Seq     uint64 // hello and welcome (delivered horizon), data, ack, matchack
	Tag     int    // data
	Sync    bool   // data: rendezvous send, expects a matchack
	Data    []byte // data payload
	Crashed bool   // hello: a crash bye follows, this is no link; bye: crash notice
	Reason  string // bye
}

// encodeFrame serializes f into a wire payload (without the outer
// length+CRC envelope; WriteFrame adds that).
func encodeFrame(f frame) []byte {
	b := wire.NewBuffer(16 + len(f.Data) + len(f.Reason))
	b.PutUint(uint64(f.Kind))
	switch f.Kind {
	case kHello:
		b.PutInt(f.Src)
		b.PutInt(f.Dst)
		b.PutInt(f.Size)
		b.PutUint(f.Epoch)
		b.PutUint(f.Seq)
		b.PutBool(f.Crashed)
	case kWelcome:
		b.PutUint(f.Epoch)
		b.PutUint(f.Seq)
	case kData:
		b.PutInt(f.Src)
		b.PutInt(f.Dst)
		b.PutInt(f.Tag)
		b.PutUint(f.Seq)
		b.PutBool(f.Sync)
		b.PutBytes(f.Data)
	case kAck, kMatchAck:
		b.PutUint(f.Seq)
	case kHeartbeat:
	case kBye:
		b.PutBool(f.Crashed)
		b.PutString(f.Reason)
	default:
		panic(fmt.Sprintf("nettrans: encode of unknown frame kind %d", f.Kind))
	}
	return b.Bytes()
}

// decodeFrame parses one wire payload. It never panics on hostile
// input: unknown kinds, truncated fields, non-canonical varints and
// trailing garbage all return an error — the connection-level response
// is to drop the connection and let the reliability layer resend.
func decodeFrame(p []byte) (frame, error) {
	r := wire.NewReader(p)
	var f frame
	k := r.Uint()
	if k > 255 {
		return f, fmt.Errorf("nettrans: frame kind %d out of range", k)
	}
	f.Kind = byte(k)
	switch f.Kind {
	case kHello:
		f.Src = r.Int()
		f.Dst = r.Int()
		f.Size = r.Int()
		f.Epoch = r.Uint()
		f.Seq = r.Uint()
		f.Crashed = r.Bool()
	case kWelcome:
		f.Epoch = r.Uint()
		f.Seq = r.Uint()
	case kData:
		f.Src = r.Int()
		f.Dst = r.Int()
		f.Tag = r.Int()
		f.Seq = r.Uint()
		f.Sync = r.Bool()
		f.Data = r.Bytes()
	case kAck, kMatchAck:
		f.Seq = r.Uint()
	case kHeartbeat:
	case kBye:
		f.Crashed = r.Bool()
		f.Reason = r.String()
	default:
		return f, fmt.Errorf("nettrans: unknown frame kind %d", f.Kind)
	}
	if err := r.Err(); err != nil {
		return frame{}, err
	}
	if r.Remaining() != 0 {
		return frame{}, fmt.Errorf("nettrans: %d trailing bytes after frame kind %d", r.Remaining(), f.Kind)
	}
	return f, nil
}

// checkHello validates a handshake against this transport's identity.
// It is the gate every inbound connection passes before any state is
// touched, so it rejects everything a confused or stale peer could
// send: wrong destination, out-of-range source, mismatched world size
// or epoch.
func checkHello(f frame, rank, size int, epoch uint64) error {
	if f.Kind != kHello {
		return fmt.Errorf("nettrans: expected hello, got frame kind %d", f.Kind)
	}
	if f.Dst != rank {
		return fmt.Errorf("nettrans: hello addressed to rank %d, this is rank %d", f.Dst, rank)
	}
	if f.Size != size {
		return fmt.Errorf("nettrans: hello world size %d, want %d", f.Size, size)
	}
	if f.Src < 0 || f.Src >= size || f.Src == rank {
		return fmt.Errorf("nettrans: hello from invalid rank %d", f.Src)
	}
	if f.Epoch != epoch {
		return fmt.Errorf("nettrans: hello epoch %d, want %d", f.Epoch, epoch)
	}
	return nil
}
