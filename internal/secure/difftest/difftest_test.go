package difftest

import (
	"errors"
	"testing"
	"time"

	"entitytrace/internal/core"
	"entitytrace/internal/message"
)

// TestDiffHappyPath replays a clean stream: every logical publish must
// accept on both pipelines.
func TestDiffHappyPath(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-happy", time.Hour)
	var v Verdicts
	for i := 0; i < 8; i++ {
		w.Clock.Advance(time.Second)
		if rsaErr, sessErr := v.Step(w, p.Topic, p.Emit("tick")); rsaErr != nil || sessErr != nil {
			t.Fatalf("step %d: rsa=%v session=%v", i, rsaErr, sessErr)
		}
	}
	v.AssertIdentical(t, "AAAAAAAA")
}

// TestDiffExpiry walks the validity window edge by edge: both pipelines
// apply the same skew tolerance, so the accept/reject flip happens at
// the same deterministic instant on both.
func TestDiffExpiry(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-expiry", time.Hour)
	pr := p.Emit("probe")
	notAfter := time.Unix(0, p.Params.NotAfter)

	var v Verdicts
	for _, at := range []time.Time{
		time.Unix(0, p.Params.NotBefore),       // issue instant
		notAfter.Add(-30 * time.Minute),        // mid-window
		notAfter,                               // exact expiry (inclusive)
		notAfter.Add(w.Skew),                   // inside skew tolerance (inclusive)
		notAfter.Add(w.Skew + time.Nanosecond), // first rejected instant
		notAfter.Add(time.Hour),                // long expired; session now invalidated
	} {
		w.Clock.Set(at)
		v.Step(w, p.Topic, pr)
	}
	v.AssertIdentical(t, "AAAARR")

	// The expired session was hard-invalidated, so the very same stream
	// element now fails as unknown — never as a stale acceptance.
	if err := w.VerifySession(p.Topic, pr.Session); !errors.Is(err, core.ErrUnknownSession) {
		t.Fatalf("expired session lookup = %v, want ErrUnknownSession", err)
	}
}

// TestDiffRotation re-delegates mid-stream. Materials from before the
// rotation stay valid until their own window closes (the paper's tokens
// are bearer grants, not serially numbered), and both pipelines must
// agree on that — then agree again once the old window lapses.
func TestDiffRotation(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-rotate", time.Hour)
	oldPair := p.Emit("pre-rotation")
	oldSession := p.Key.ID()

	w.Clock.Advance(time.Minute)
	p.Rotate(3 * time.Hour)
	if p.Key.ID() == oldSession {
		t.Fatal("rotation reused the session ID")
	}
	newPair := p.Emit("post-rotation")

	var v Verdicts
	v.Step(w, p.Topic, oldPair) // old token still in window
	v.Step(w, p.Topic, newPair)

	w.Clock.Advance(2 * time.Hour) // old window lapsed, new still open
	v.Step(w, p.Topic, oldPair)
	v.Step(w, p.Topic, newPair)
	v.AssertIdentical(t, "AARA")
}

// TestDiffRevocation withdraws the publisher's authority: the topic
// stops resolving (§5.2) and all sessions bound to the token die.
// Already-captured envelopes and fresh ones alike must reject on both
// pipelines.
func TestDiffRevocation(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-revoke", time.Hour)
	captured := p.Emit("before")

	var v Verdicts
	v.Step(w, p.Topic, captured)
	p.Revoke()
	v.Step(w, p.Topic, captured) // replayed capture
	v.Step(w, p.Topic, p.Emit("after"))
	v.AssertIdentical(t, "ARR")
}

// TestDiffTamper flips payload and signature bytes. Both pipelines
// reject; additionally the session pipeline hard-invalidates on a tag
// failure, so the previously good stream element is refused until the
// publisher re-passes full verification (renegotiation) — the fallback
// the issue calls for, asserted explicitly outside the parity string.
func TestDiffTamper(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-tamper", time.Hour)

	var v Verdicts
	good := p.Emit("good")
	v.Step(w, p.Topic, good)

	tampered := p.Emit("victim").Mutate(func(e *message.Envelope) {
		e.Payload[0] ^= 0x80
	})
	v.Step(w, p.Topic, tampered)

	// Hard fallback: the tag failure killed the session, so even the
	// pristine earlier envelope is now unknown on the session path.
	if err := w.VerifySession(p.Topic, good.Session); !errors.Is(err, core.ErrUnknownSession) {
		t.Fatalf("post-tamper session verdict = %v, want ErrUnknownSession", err)
	}
	p.Renegotiate()
	v.Step(w, p.Topic, good)

	// Trailer corruption: flip one authentication byte on each rendering.
	flipped := p.Emit("victim2").Mutate(func(e *message.Envelope) {
		e.Signature[len(e.Signature)-1] ^= 1
	})
	v.Step(w, p.Topic, flipped)
	p.Renegotiate()
	v.Step(w, p.Topic, p.Emit("recovered"))
	v.AssertIdentical(t, "ARARA")
}

// TestDiffReplay re-verifies captured envelopes. Inside the validity
// window a crypto-layer replay verifies on both paths (dedup lives at
// the routing layer); once the window closes, both reject the same
// capture.
func TestDiffReplay(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-replay", time.Hour)
	captured := p.Emit("capture-me")

	var v Verdicts
	v.Step(w, p.Topic, captured)
	v.Step(w, p.Topic, captured) // immediate replay
	w.Clock.Advance(30 * time.Minute)
	v.Step(w, p.Topic, captured) // late in-window replay
	w.Clock.Advance(time.Hour)   // past expiry + skew
	v.Step(w, p.Topic, captured)
	v.AssertIdentical(t, "AAAR")
}

// TestDiffDowngrade re-frames envelopes across pipelines. FlagSessionTag
// is covered by the canonical signing bytes, so moving an envelope to
// the other pipeline — with or without splicing captured credentials —
// must always reject.
func TestDiffDowngrade(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-downgrade", time.Hour)
	var v Verdicts

	// Sanity: an honest pair routes to its own pipeline and accepts.
	v.StepRouted(w, p.Topic, p.Emit("honest"))

	// Session envelope stripped of its flag lands on the RSA pipeline
	// with no token: rejected.
	bare := p.Emit("strip").Session.Clone()
	bare.Flags &^= message.FlagSessionTag
	if err := w.Route(p.Topic, bare); err == nil {
		t.Fatal("flag-stripped session envelope verified on the RSA path")
	}

	// Same attack with a captured token spliced on: the token chain
	// verifies, but a 48-byte session trailer is no RSA delegate
	// signature.
	spliced := p.Emit("strip+token").Session.Clone()
	spliced.Flags &^= message.FlagSessionTag
	spliced.Token = p.TokenBytes
	if err := w.Route(p.Topic, spliced); err == nil {
		t.Fatal("flag-stripped envelope with spliced token verified")
	}

	// RSA envelope force-flagged into the session pipeline: the RSA
	// signature cannot parse as sessionID||tag.
	forced := p.Emit("force").RSA.Clone()
	forced.Flags |= message.FlagSessionTag
	if err := w.Route(p.Topic, forced); err == nil {
		t.Fatal("force-flagged RSA envelope verified on the session path")
	}

	// Splice a live session ID onto a garbage tag: the known session
	// rejects AND hard-invalidates, and nothing stale authenticates
	// until renegotiation.
	victim := p.Emit("victim")
	sid := p.Key.ID()
	spoof := victim.RSA.Clone()
	spoof.Flags |= message.FlagSessionTag
	spoof.Signature = append(append([]byte(nil), sid[:]...), spoof.Signature[:32]...)
	if err := w.Route(p.Topic, spoof); err == nil {
		t.Fatal("spliced session ID with forged tag verified")
	}
	if err := w.VerifySession(p.Topic, victim.Session); !errors.Is(err, core.ErrUnknownSession) {
		t.Fatalf("post-spoof session verdict = %v, want ErrUnknownSession", err)
	}
	p.Renegotiate()
	v.StepRouted(w, p.Topic, p.Emit("recovered"))
	v.AssertIdentical(t, "AA")
}

// TestDiffDeterministicVerdicts runs the expiry walk in two independent
// worlds: session IDs, secrets, and delegate keys are freshly random,
// yet every validity decision flows through the fake clock, so the
// verdict strings must come out byte-identical run to run.
func TestDiffDeterministicVerdicts(t *testing.T) {
	run := func() string {
		w := NewWorld(t)
		p := w.NewPublisher("diff-determinism", time.Hour)
		pr := p.Emit("probe")
		notAfter := time.Unix(0, p.Params.NotAfter)
		var v Verdicts
		for _, at := range []time.Time{
			time.Unix(0, p.Params.NotBefore),
			notAfter.Add(-time.Minute),
			notAfter.Add(w.Skew),
			notAfter.Add(w.Skew + time.Nanosecond),
		} {
			w.Clock.Set(at)
			v.Step(w, p.Topic, pr)
		}
		v.AssertIdentical(t, "")
		return string(v.RSA)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("verdicts varied across runs: %s vs %s", first, second)
	}
	if first != "AAAR" {
		t.Fatalf("verdicts = %s, want AAAR", first)
	}
}

// TestDiffReceivedThenEdited covers the in-place check's one hazard: an
// envelope decoded off the wire and then edited in memory must be judged
// by its edited fields, never by the bytes it arrived in. Each edit
// rejects (and, being a tag failure, hard-invalidates the session) just
// as the same edit does on an envelope built in memory.
func TestDiffReceivedThenEdited(t *testing.T) {
	w := NewWorld(t)
	p := w.NewPublisher("diff-received", time.Hour)
	var v Verdicts
	v.Step(w, p.Topic, p.Emit("before"))
	for name, edit := range map[string]func(*message.Envelope){
		"payload replaced": func(e *message.Envelope) { e.Payload = []byte("forged") },
		"sequence bumped":  func(e *message.Envelope) { e.SeqNum++ },
		"flags widened":    func(e *message.Envelope) { e.Flags |= message.FlagSecured },
	} {
		rx := w.Receive(p.Emit("victim").Session)
		edit(rx)
		if err := w.Route(p.Topic, rx); err == nil {
			t.Fatalf("%s: a received envelope edited afterwards verified", name)
		}
		if err := w.Route(p.Topic, w.Receive(p.Emit("next").Session)); !errors.Is(err, core.ErrUnknownSession) {
			t.Fatalf("%s: session after the failed tag = %v, want ErrUnknownSession", name, err)
		}
		p.Renegotiate()
	}
	v.Step(w, p.Topic, p.Emit("after"))
	v.AssertIdentical(t, "AA")
}
