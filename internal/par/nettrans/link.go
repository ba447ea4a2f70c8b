package nettrans

import (
	"fmt"
	"time"

	"repro/internal/par"
)

// link is the protocol core of this rank's link to one peer: every
// decision the link protocol makes, and nothing else. It holds no
// socket, goroutine, lock or clock. The transport's loops own those;
// they name connections by id, pass the time in, call one event method
// under the peer's lock and carry out the effects it returns. The
// connection's writer asks pull for the frames to write, so acks
// coalesce while it is busy. The simulator in the tests drives cores
// the same way over an in-memory network.
type link struct {
	liveness time.Duration

	conn      uint64                   // the installed connection; 0 while down
	queue     []par.Envelope           // unacknowledged envelopes, in sequence order
	unsent    int                      // index of the first queue entry not yet pulled for conn
	pending   map[uint64]chan struct{} // rendezvous sends awaiting their match-ack
	acked     uint64                   // the peer's cumulative delivery ack
	delivered uint64                   // highest sequence delivered from the peer
	ackOwed   bool                     // a delivery since the last ack pulled
	macks     []mack                   // match-acks not known to have arrived
	mackSent  int                      // macks[:mackSent] were pulled for conn
	wrote     uint64                   // the peer's horizon at install, then the last data pulled
	beat      bool                     // a tick asked for a heartbeat
	bye       *frame                   // the last frame conn carries, owed
	heard     time.Time                // last frame from the peer
	closeBy   time.Time                // Close's drain deadline; zero while open

	dead, finished, closed bool // the peer crashed; the peer said bye; this rank said bye

	fx effects // reused by every event
}

// mack is an owed match-ack. A pulled one stays owed until the peer
// acknowledges a data frame pulled after it (seq > after): then it
// was read, since frames on a connection arrive in order and the peer
// delivers only from the link. A cut loses it otherwise, so every
// install writes it again; the peer ignores a repeat.
type mack struct{ seq, after uint64 }

// effects is what one event asks of the transport's loops. The slices
// alias the core's buffers and hold until its next event.
type effects struct {
	deliver []par.Envelope  // hand to the runtime, in order
	release []chan struct{} // rendezvous sends to complete
	drop    []uint64        // connections to close now
	dead    string          // the peer died, for this reason
	gasp    bool            // a crash with no link up: dial a last gasp to carry the bye
}

func newLink(liveness time.Duration, now time.Time) link {
	return link{liveness: liveness, pending: map[uint64]chan struct{}{}, heard: now}
}

// over reports whether the link needs no further effort.
func (l *link) over() bool { return l.dead || l.finished || l.closed }

func (l *link) reset() {
	l.fx = effects{deliver: l.fx.deliver[:0], release: l.fx.release[:0], drop: l.fx.drop[:0]}
}

// send queues e for the peer. An envelope to a peer that is over
// vanishes and its rendezvous completes at once, the in-process rule
// for a dead rank; a finished peer gets the same, as it will never
// receive again.
func (l *link) send(e par.Envelope, matched chan struct{}) effects {
	l.reset()
	switch {
	case l.over():
		if matched != nil {
			l.fx.release = append(l.fx.release, matched)
		}
	default:
		l.queue = append(l.queue, e)
		if matched != nil {
			l.pending[e.Seq] = matched
		}
	}
	return l.fx
}

// matched owes the peer a match-ack: a local receive matched its
// rendezvous send seq.
func (l *link) matched(seq uint64) effects {
	l.reset()
	if !l.over() {
		l.macks = append(l.macks, mack{seq: seq})
	}
	return l.fx
}

// install makes the handshaken connection c the link. The queue is
// pruned to the peer's delivered horizon and everything past it, and
// every owed match-ack, is pulled again. A link already up is
// replaced; a link that is over refuses c.
func (l *link) install(c, horizon uint64, now time.Time) effects {
	l.reset()
	if l.over() {
		l.fx.drop = append(l.fx.drop, c)
		return l.fx
	}
	if l.conn != 0 {
		l.fx.drop = append(l.fx.drop, l.conn)
	}
	l.conn, l.heard = c, now
	l.prune(horizon)
	// The handshake carried this rank's horizon: no ack is owed.
	l.unsent, l.mackSent, l.wrote, l.ackOwed = 0, 0, l.acked, false
	l.closeIfDrained(now)
	return l.fx
}

// hello is the handshake this rank's dial opens with: it carries the
// delivered horizon, and a last gasp is marked as one.
func (l *link) hello(lastGasp bool) frame {
	return frame{Kind: kHello, Seq: l.delivered, Crashed: lastGasp}
}

// accept answers an inbound hello on connection c with the welcome to
// write, which carries this rank's delivered horizon; a zero Kind
// means c is refused. A hello marked as a last gasp only precedes a
// crash bye: it is welcomed but never installed, where the dying
// peer's own redial could replace it before the bye was read.
func (l *link) accept(c uint64, hello frame, now time.Time) (frame, effects) {
	if hello.Crashed {
		l.reset()
		l.heard = now
	} else if l.install(c, hello.Seq, now); l.conn != c {
		return frame{}, l.fx
	}
	return frame{Kind: kWelcome, Seq: l.delivered}, l.fx
}

// receive handles one frame that arrived on connection c. Only the
// link delivers: data on a replaced connection is dropped, and the
// peer resends it past the horizon the new handshake carried. Acks,
// match-acks and a bye are true on any connection.
func (l *link) receive(c uint64, f frame, now time.Time) effects {
	l.reset()
	l.heard = now
	if l.over() {
		return l.fx
	}
	switch f.Kind {
	case kData:
		if c != l.conn {
			break
		}
		if f.Seq > l.delivered {
			l.delivered = f.Seq
			l.fx.deliver = append(l.fx.deliver, par.Envelope{Src: f.Src, Dst: f.Dst, Tag: f.Tag, Seq: f.Seq, Data: f.Data, Sync: f.Sync})
		}
		// Owed for a duplicate too, in case the original ack was lost.
		l.ackOwed = true
	case kAck:
		l.prune(f.Seq)
	case kMatchAck:
		if ch, ok := l.pending[f.Seq]; ok {
			delete(l.pending, f.Seq)
			l.fx.release = append(l.fx.release, ch)
		}
	case kBye:
		l.retire(f.Crashed, "peer crashed: "+f.Reason)
	}
	l.closeIfDrained(now)
	return l.fx
}

// down reports that connection c failed or closed. Losing the link is
// never a death: the lower rank redials.
func (l *link) down(c uint64) effects {
	l.reset()
	if c == l.conn {
		l.conn = 0
	}
	return l.fx
}

// tick is the heartbeat interval passing: a peer silent past the
// liveness timeout is dead, a draining Close past its deadline says
// bye, and an idle link owes a heartbeat.
func (l *link) tick(now time.Time) effects {
	l.reset()
	switch silent := now.Sub(l.heard); {
	case l.over():
	case silent > l.liveness:
		l.retire(true, fmt.Sprintf("liveness timeout: silent for %v", silent.Round(time.Millisecond)))
	default:
		l.beat = l.conn != 0
		l.closeIfDrained(now)
	}
	return l.fx
}

// crash announces this rank's crash: a crash bye on the link, or a
// last gasp when none is up. Unsent envelopes die with the rank.
func (l *link) crash(reason string) effects {
	l.reset()
	if !l.over() {
		l.fx.gasp = l.conn == 0
		l.finish(frame{Kind: kBye, Crashed: true, Reason: reason})
	}
	return l.fx
}

// close starts Close's drain: the link says a clean bye once its queue
// is acknowledged and no rendezvous is pending, or at the drain
// deadline.
func (l *link) close(now time.Time) effects {
	l.reset()
	if !l.over() && l.closeBy.IsZero() {
		l.closeBy = now.Add(drainTimeout)
		l.closeIfDrained(now)
	}
	return l.fx
}

func (l *link) closeIfDrained(now time.Time) {
	if !l.closeBy.IsZero() && !l.over() && (len(l.queue) == 0 && len(l.pending) == 0 || !now.Before(l.closeBy)) {
		l.finish(frame{Kind: kBye})
	}
}

// finish ends this rank's side: bye is the last frame the link
// carries, and every pending rendezvous completes.
func (l *link) finish(bye frame) {
	l.closed = true
	if l.conn != 0 {
		l.bye = &bye
	}
	l.drop()
}

// retire stops all effort toward the peer. A dead peer — crash notice
// or liveness timeout — is reported to the runtime; a finished one
// (clean bye) is not, as a finished rank is not a failed rank.
func (l *link) retire(dead bool, reason string) {
	l.dead, l.finished = dead, !dead
	if dead {
		l.fx.dead = reason
	}
	if l.conn != 0 {
		l.fx.drop = append(l.fx.drop, l.conn)
		l.conn = 0
	}
	l.drop()
}

// drop releases the queue and every pending rendezvous, which the peer
// will never match.
func (l *link) drop() {
	l.queue, l.unsent, l.macks = nil, 0, nil
	for seq, ch := range l.pending {
		l.fx.release = append(l.fx.release, ch)
		delete(l.pending, seq)
	}
}

// prune drops the queue entries and pulled match-acks the peer's
// cumulative ack covers. A rendezvous entry leaves the queue when
// delivered (it sits in the peer's mailbox and is never resent), but
// its channel stays pending until the match-ack.
func (l *link) prune(acked uint64) {
	if acked <= l.acked {
		return
	}
	l.acked = acked
	i := 0
	for i < len(l.queue) && l.queue[i].Seq <= acked {
		i++
	}
	clear(l.queue[:i]) // release the delivered payloads
	l.queue, l.unsent = l.queue[i:], max(l.unsent-i, 0)
	j := 0
	for j < l.mackSent && l.macks[j].after < acked {
		j++
	}
	l.macks, l.mackSent = l.macks[j:], l.mackSent-j
}

// pull hands connection c's writer its next frame: the bye, which ends
// the connection, else an owed ack, owed match-acks, the queue past
// unsent, and a heartbeat when a tick asked for one and nothing else
// went. ok is false when there is nothing to write or c is not the
// link.
func (l *link) pull(c uint64) (f frame, ok bool) {
	if c == 0 || c != l.conn {
		return f, false
	}
	switch {
	case l.bye != nil:
		f, l.bye, l.conn = *l.bye, nil, 0
	case l.ackOwed:
		l.ackOwed = false
		f = frame{Kind: kAck, Seq: l.delivered}
	case l.mackSent < len(l.macks):
		l.macks[l.mackSent].after = l.wrote
		f = frame{Kind: kMatchAck, Seq: l.macks[l.mackSent].seq}
		l.mackSent++
	case l.unsent < len(l.queue):
		m := l.queue[l.unsent]
		l.unsent, l.wrote = l.unsent+1, m.Seq
		f = frame{Kind: kData, Src: m.Src, Dst: m.Dst, Tag: m.Tag, Seq: m.Seq, Sync: m.Sync, Data: m.Data}
	case l.beat:
		f = frame{Kind: kHeartbeat}
	default:
		return f, false
	}
	l.beat = false
	return f, true
}
