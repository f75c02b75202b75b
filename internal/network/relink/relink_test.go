package relink

import (
	"context"
	"errors"
	"testing"
	"time"

	"thetacrypt/internal/network"
)

// write is one step of a sender: take the next frame and report its
// write as completed at now.
func write(l *Link, now time.Time) (network.Envelope, bool) {
	env, ok := l.Next(now)
	if ok {
		l.Wrote(env.Seq, now)
	}
	return env, ok
}

func stage(t *testing.T, l *Link, round int) network.Envelope {
	t.Helper()
	env, err := l.Stage(context.Background(), network.Envelope{Kind: network.KindProto, Round: round})
	if err != nil {
		t.Fatalf("stage round %d: %v", round, err)
	}
	return env
}

func TestStageAssignsMonotonicSeqs(t *testing.T) {
	l := NewLink(7, Config{})
	for i := 1; i <= 5; i++ {
		env := stage(t, l, i)
		if env.Seq != uint64(i) || env.Epoch != 7 {
			t.Fatalf("frame %d staged as seq=%d epoch=%d", i, env.Seq, env.Epoch)
		}
		if env.Base != 1 {
			t.Fatalf("frame %d base = %d, want 1 (nothing acked)", i, env.Base)
		}
	}
	if got := l.Stats().Inflight; got != 5 {
		t.Fatalf("inflight = %d, want 5", got)
	}
}

func TestAckDischargesCumulatively(t *testing.T) {
	l := NewLink(7, Config{})
	for i := 1; i <= 4; i++ {
		stage(t, l, i)
	}
	l.Ack(99, 4) // wrong epoch: ignored
	if st := l.Stats(); st.Delivered != 0 || st.Inflight != 4 {
		t.Fatalf("foreign-epoch ack discharged frames: delivered=%d inflight=%d", st.Delivered, st.Inflight)
	}
	l.Ack(7, 3)
	if st := l.Stats(); st.Delivered != 3 || st.Inflight != 1 {
		t.Fatalf("after ack 3: delivered=%d inflight=%d", st.Delivered, st.Inflight)
	}
	if env := stage(t, l, 5); env.Base != 4 {
		t.Fatalf("base after ack 3 = %d, want 4", env.Base)
	}
}

// TestWindowFailFast: the frame past a full window is refused at once
// and counted, and takes no sequence number, so the next admitted
// frame leaves no gap.
func TestWindowFailFast(t *testing.T) {
	l := NewLink(1, Config{})
	for i := 1; i <= Window; i++ {
		stage(t, l, i)
	}
	start := time.Now()
	if _, err := l.Stage(context.Background(), network.Envelope{}); !errors.Is(err, network.ErrPeerBacklogged) {
		t.Fatalf("full window returned %v, want ErrPeerBacklogged", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("refusal took %v", d)
	}
	if st := l.Stats(); st.Dropped != 1 || st.Enqueued != Window || st.QueueDepth != Window || st.QueueCap != Window {
		t.Fatalf("stats %+v, want 1 dropped and a full window", st)
	}
	l.Ack(1, 1)
	if env := stage(t, l, 0); env.Seq != Window+1 {
		t.Fatalf("frame after the refusal got seq %d, want %d", env.Seq, Window+1)
	}
}

// TestNextWritesInOrderThenGoesBack: Next hands out each staged frame
// once, in order; once the oldest unacknowledged frame is stale it
// hands out every unacknowledged frame again, counted as resends, with
// the current Base.
func TestNextWritesInOrderThenGoesBack(t *testing.T) {
	l := NewLink(1, Config{ResendTimeout: 10 * time.Millisecond})
	stage(t, l, 1)
	stage(t, l, 2)
	next := func(now time.Time) uint64 {
		t.Helper()
		env, ok := write(l, now)
		if !ok {
			return 0
		}
		return env.Seq
	}
	now := time.Now()
	if a, b, c := next(now), next(now), next(now); a != 1 || b != 2 || c != 0 {
		t.Fatalf("first writes %d %d %d, want 1 2 then nothing", a, b, c)
	}
	if st := l.Stats(); st.QueueDepth != 0 || st.Resent != 0 {
		t.Fatalf("stats after the first writes %+v", st)
	}
	stage(t, l, 3)
	if got := next(now.Add(5 * time.Millisecond)); got != 3 {
		t.Fatalf("fresh frame written as %d, want 3", got)
	}
	if got := next(now.Add(5 * time.Millisecond)); got != 0 {
		t.Fatalf("frame %d resent before the timeout", got)
	}
	l.Ack(1, 1)
	later := now.Add(20 * time.Millisecond)
	for _, want := range []uint64{2, 3} {
		env, ok := write(l, later)
		if !ok || env.Seq != want || env.Base != 2 {
			t.Fatalf("resend = seq %d base %d (%v), want seq %d base 2", env.Seq, env.Base, ok, want)
		}
	}
	if got := next(later); got != 0 {
		t.Fatalf("frame %d resent twice in one pass", got)
	}
	if st := l.Stats(); st.Resent != 2 {
		t.Fatalf("resent = %d, want 2", st.Resent)
	}
}

// TestResendSkipsFramesJustWritten bounds what a lost frame costs: once
// the oldest frame is stale, only the frames written ResendTimeout ago
// or more go again, not those written a moment ago; those follow in the
// next pass, once they are stale too.
func TestResendSkipsFramesJustWritten(t *testing.T) {
	l := NewLink(1, Config{ResendTimeout: 10 * time.Millisecond})
	now := time.Now()
	for i := 1; i <= 6; i++ {
		stage(t, l, i)
		at := now
		if i > 3 {
			at = now.Add(8 * time.Millisecond)
		}
		if env, ok := write(l, at); !ok || env.Seq != uint64(i) {
			t.Fatalf("first write of frame %d = seq %d (%v)", i, env.Seq, ok)
		}
	}
	pass := func(at time.Time, want ...uint64) {
		t.Helper()
		for _, seq := range want {
			if env, ok := write(l, at); !ok || env.Seq != seq {
				t.Fatalf("resend = seq %d (%v), want %d", env.Seq, ok, seq)
			}
		}
		if env, ok := write(l, at); ok {
			t.Fatalf("frame %d resent, want the pass to end", env.Seq)
		}
	}
	pass(now.Add(12*time.Millisecond), 1, 2, 3)
	if st := l.Stats(); st.Resent != 3 {
		t.Fatalf("resent = %d after the first pass, want 3", st.Resent)
	}
	pass(now.Add(22*time.Millisecond), 1, 2, 3, 4, 5, 6)
	if st := l.Stats(); st.Resent != 9 {
		t.Fatalf("resent = %d after the second pass, want 9", st.Resent)
	}
}

// TestWroteRestampsCompletedWrite: a frame counts as written when its
// write completed, so its resend timeout runs from then; Wrote ignores
// a frame already acknowledged.
func TestWroteRestampsCompletedWrite(t *testing.T) {
	l := NewLink(1, Config{ResendTimeout: 10 * time.Millisecond})
	l.Wrote(1, time.Now()) // empty window
	stage(t, l, 1)
	now := time.Now()
	if env, ok := l.Next(now); !ok || env.Seq != 1 {
		t.Fatalf("first write = seq %d (%v)", env.Seq, ok)
	}
	l.Wrote(1, now.Add(50*time.Millisecond))
	if env, ok := l.Next(now.Add(55 * time.Millisecond)); ok {
		t.Fatalf("frame %d resent within the timeout of its completed write", env.Seq)
	}
	if env, ok := l.Next(now.Add(60 * time.Millisecond)); !ok || env.Seq != 1 {
		t.Fatalf("resend = seq %d (%v), want 1 once the timeout ran from the completed write", env.Seq, ok)
	}
	stage(t, l, 2)
	l.Ack(1, 1)
	l.Wrote(1, now) // acknowledged: ignored
	if st := l.Stats(); st.Inflight != 1 || st.Resent != 1 {
		t.Fatalf("stats %+v, want frame 2 in flight and one resend", st)
	}
}

// TestOwedCountsFromLastAck: Owed counts the in-order deliveries since
// the acknowledgement that last went out, per sender incarnation.
func TestOwedCountsFromLastAck(t *testing.T) {
	in := NewInbox(0)
	if n := in.Owed(); n != 0 {
		t.Fatalf("owed %d before any contact", n)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		in.Accept(frame(7, seq, 1, int(seq)))
	}
	if n := in.Owed(); n != 5 {
		t.Fatalf("owed %d, want 5", n)
	}
	in.ClearPending(7, 3)
	in.Accept(frame(7, 6, 1, 6))
	if n := in.Owed(); n != 3 {
		t.Fatalf("owed %d after an ack of 3 and frame 6, want 3", n)
	}
	in.Accept(frame(8, 1, 1, 1)) // the sender restarted
	if n := in.Owed(); n != 1 {
		t.Fatalf("owed %d to the new incarnation, want 1", n)
	}
	in.ClearPending(8, 1)
	if n := in.Owed(); n != 0 {
		t.Fatalf("owed %d after acknowledging everything, want 0", n)
	}
}

func frame(epoch, seq, base uint64, round int) network.Envelope {
	return network.Envelope{Kind: network.KindProto, Round: round, Seq: seq, Epoch: epoch, Base: base}
}

func rounds(envs []network.Envelope) []int {
	out := make([]int, len(envs))
	for i, e := range envs {
		out[i] = e.Round
	}
	return out
}

func TestInboxInOrderAndReorder(t *testing.T) {
	in := NewInbox(16)
	if got := in.Accept(frame(5, 1, 1, 1)); len(got) != 1 || got[0].Round != 1 {
		t.Fatalf("first frame delivered %v", rounds(got))
	}
	// Out of order: 3 before 2 is buffered, then both flush.
	if got := in.Accept(frame(5, 3, 1, 3)); len(got) != 0 {
		t.Fatalf("gap frame delivered early: %v", rounds(got))
	}
	if got := in.Accept(frame(5, 2, 1, 2)); len(got) != 2 || got[0].Round != 2 || got[1].Round != 3 {
		t.Fatalf("gap fill delivered %v, want [2 3]", rounds(got))
	}
	epoch, upTo, ok := in.AckValue()
	if !ok || epoch != 5 || upTo != 3 {
		t.Fatalf("ack value = (%d,%d,%v), want (5,3,true)", epoch, upTo, ok)
	}
}

func TestInboxFiltersDuplicates(t *testing.T) {
	in := NewInbox(16)
	in.Accept(frame(5, 1, 1, 1))
	if got := in.Accept(frame(5, 1, 1, 1)); len(got) != 0 {
		t.Fatalf("duplicate delivered: %v", rounds(got))
	}
	if in.Dups() != 1 {
		t.Fatalf("dups = %d, want 1", in.Dups())
	}
	// A duplicate still owes an ack: the sender clearly missed ours.
	in.ClearPending(5, 1)
	in.Accept(frame(5, 1, 1, 1))
	if _, _, ok := in.PendingAck(); !ok {
		t.Fatal("duplicate did not re-arm the pending ack")
	}
}

func TestClearPendingIgnoresStaleValue(t *testing.T) {
	in := NewInbox(16)
	in.Accept(frame(5, 1, 1, 1))
	epoch, upTo, _ := in.PendingAck() // (5, 1) read by a flusher...
	in.Accept(frame(5, 2, 1, 2))      // ...then a frame lands before the clear
	in.ClearPending(epoch, upTo)
	if _, got, ok := in.PendingAck(); !ok || got != 2 {
		t.Fatalf("pending ack = (%d,%v) after stale clear, want (2,true)", got, ok)
	}
	// Clearing the current value works.
	in.ClearPending(5, 2)
	if _, _, ok := in.PendingAck(); ok {
		t.Fatal("current-value clear did not take")
	}
}

func TestInboxStaleEpochStragglerDoesNotResetCursor(t *testing.T) {
	// The receiver is mid-stream on epoch B; a straggler from the dead
	// incarnation A (old connection draining concurrently) must not
	// reset B's cursor — a following resend of an already delivered B
	// frame would otherwise be delivered twice.
	in := NewInbox(16)
	in.Accept(frame(7, 1, 1, 1))                             // epoch A history
	if got := in.Accept(frame(9, 1, 1, 10)); len(got) != 1 { // epoch B takes over
		t.Fatalf("fresh epoch frame delivered %v", rounds(got))
	}
	in.Accept(frame(9, 2, 1, 11))
	if got := in.Accept(frame(7, 2, 1, 2)); len(got) != 1 || got[0].Round != 2 {
		// The straggler resumes A's own retired cursor.
		t.Fatalf("straggler delivered %v, want [2]", rounds(got))
	}
	// The straggler briefly claims the ack target (MRU) — its acks are
	// ignored by the live sender — but B's cursor survived: a resend of
	// B seq 1 is a duplicate, B's stream continues where it left off,
	// and the acknowledgement target re-converges on B.
	if got := in.Accept(frame(9, 1, 1, 10)); len(got) != 0 {
		t.Fatalf("replayed B frame delivered again: %v", rounds(got))
	}
	if got := in.Accept(frame(9, 3, 1, 12)); len(got) != 1 || got[0].Round != 12 {
		t.Fatalf("B stream broken after straggler: %v", rounds(got))
	}
	if epoch, upTo, ok := in.AckValue(); !ok || epoch != 9 || upTo != 3 {
		t.Fatalf("ack value = (%d,%d,%v) after straggler, want (9,3,true)", epoch, upTo, ok)
	}
}

func TestInboxEpochResetOnSenderRestart(t *testing.T) {
	in := NewInbox(16)
	in.Accept(frame(5, 1, 1, 1))
	in.Accept(frame(5, 2, 1, 2))
	// The sender restarts: new epoch, sequence space restarts at 1.
	if got := in.Accept(frame(9, 1, 1, 10)); len(got) != 1 || got[0].Round != 10 {
		t.Fatalf("fresh-epoch frame delivered %v, want [10]", rounds(got))
	}
	epoch, upTo, _ := in.AckValue()
	if epoch != 9 || upTo != 1 {
		t.Fatalf("ack after epoch reset = (%d,%d), want (9,1)", epoch, upTo)
	}
}

func TestInboxBaseJumpSkipsSettledFrames(t *testing.T) {
	// A fresh receiver (restarted node): the sender's window starts at 4
	// because 1..3 were acknowledged to our previous incarnation.
	in := NewInbox(16)
	if got := in.Accept(frame(5, 5, 4, 5)); len(got) != 0 {
		t.Fatalf("future frame delivered early: %v", rounds(got))
	}
	if got := in.Accept(frame(5, 4, 4, 4)); len(got) != 2 || got[0].Round != 4 || got[1].Round != 5 {
		t.Fatalf("base-jump delivery %v, want [4 5]", rounds(got))
	}
	// Mid-stream jump: the sender's base moved past 6.
	if got := in.Accept(frame(5, 7, 7, 7)); len(got) != 1 || got[0].Round != 7 {
		t.Fatalf("jump past evicted frame delivered %v, want [7]", rounds(got))
	}
}

func TestInboxUnsequencedPassThroughIsCallersJob(t *testing.T) {
	// Seq 0 frames never reach Accept (transports deliver them raw);
	// this guards the contract that Accept only sees sequenced frames.
	in := NewInbox(4)
	if got := in.Accept(frame(5, 1, 1, 1)); len(got) != 1 {
		t.Fatalf("sequenced frame not delivered: %v", rounds(got))
	}
}

// BenchmarkRelinkStageAckCycle measures the ack layer's hot path: stage
// one frame, hand it to the sender, accept it, discharge the window —
// the per-frame overhead added beneath every Send.
func BenchmarkRelinkStageAckCycle(b *testing.B) {
	l := NewLink(3, Config{})
	in := NewInbox(Window)
	ctx := context.Background()
	env := network.Envelope{Kind: network.KindProto, Payload: []byte("bench")}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Stage(ctx, env); err != nil {
			b.Fatal(err)
		}
		written, ok := l.Next(now)
		if !ok {
			b.Fatal("staged frame not handed out")
		}
		out := in.Accept(written)
		if len(out) != 1 {
			b.Fatalf("accept delivered %d frames", len(out))
		}
		epoch, upTo, _ := in.AckValue()
		l.Ack(epoch, upTo)
	}
}
