// Securetraces demonstrates §5.1 confidentiality and §4 authorization:
// a sensitive entity secures its traces with a secret AES trace key and
// restricts discovery of its trace topic to one named tracker. The
// authorized tracker receives the sealed key and reads traces in the
// clear; an eavesdropper on the wire sees only ciphertext; an
// unauthorized tracker cannot even discover the trace topic; and a
// forged trace injected without an authorization token is discarded by
// the broker (§5.2).
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/core"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/secure"
	"entitytrace/internal/topic"
)

func main() {
	tb, err := harness.New(harness.Options{
		Brokers:       1,
		Security:      true, // §5.1: traces are encrypted under a secret trace key
		GaugeInterval: 150 * time.Millisecond,
	})
	check(err)
	defer tb.Close()

	// The secured entity only allows "auditor" to discover its topic.
	id, err := tb.CA.Issue("vault-service")
	check(err)
	cl, err := broker.Connect(tb.Transport(), tb.Addrs[0], "vault-service")
	check(err)
	ent, err := core.StartTracing(core.EntityConfig{
		Identity:        id,
		Verifier:        tb.Verifier,
		Registry:        tb.Node,
		Client:          cl,
		SecureTraces:    true,
		AllowedTrackers: []string{"auditor"},
	})
	check(err)
	fmt.Printf("vault-service traced on secured topic %s\n", ent.TraceTopic())

	// 1. The authorized auditor: discovery succeeds, the sealed trace
	//    key arrives, traces decrypt.
	auditor, err := tb.StartTracker("auditor", 0, "vault-service",
		topic.NewClassSet(topic.ClassStateTransitions))
	check(err)
	check(auditor.AwaitTraceKey(10 * time.Second))
	fmt.Println("auditor: received the sealed secret trace key (§5.1)")

	check(ent.SetState(message.StateReady))
	select {
	case ev := <-auditor.Events:
		if !ev.Encrypted {
			log.Fatal("trace was not encrypted")
		}
		fmt.Printf("auditor: decrypted trace %s %q (was encrypted on the wire)\n", ev.Type, ev.Detail)
	case <-time.After(10 * time.Second):
		log.Fatal("auditor saw no trace")
	}

	// 2. An unauthorized tracker cannot discover the topic at all: the
	//    TDN ignores the request (§3.1).
	snoopID, err := tb.CA.Issue("snoop")
	check(err)
	snoopConn, err := broker.Connect(tb.Transport(), tb.Addrs[0], "snoop")
	check(err)
	snoop, err := core.NewTracker(core.TrackerConfig{
		Identity:  snoopID,
		Verifier:  tb.Verifier,
		Discovery: tb.Node,
		Client:    snoopConn,
	})
	check(err)
	defer snoop.Close()
	if _, err := snoop.Discover("vault-service"); err != nil {
		fmt.Printf("snoop: discovery denied as expected: %v\n", firstLine(err.Error()))
	} else {
		log.Fatal("snoop discovered a restricted topic")
	}

	// 3. An eavesdropper that somehow learned the topic UUID subscribes
	//    to the derivative topic directly — and sees only ciphertext.
	eveConn, err := broker.Connect(tb.Transport(), tb.Addrs[0], "eve")
	check(err)
	defer eveConn.Close()
	raw := make(chan *message.Envelope, 8)
	check(eveConn.Subscribe(topic.StateTransitions(ent.TraceTopic()),
		func(e *message.Envelope) { raw <- e }))
	check(ent.SetState(message.StateRecovering))
	select {
	case env := <-raw:
		if env.Flags&message.FlagEncrypted == 0 {
			log.Fatal("wire payload was not encrypted")
		}
		if strings.Contains(string(env.Payload), "RECOVERING") {
			log.Fatal("ciphertext leaked plaintext")
		}
		fmt.Printf("eve: sees only %d bytes of AES-%d ciphertext\n",
			len(env.Payload), secure.PaperAESKeyBytes*8)
	case <-time.After(10 * time.Second):
		log.Fatal("eavesdropper saw no traffic")
	}

	// 4. A forged trace without an authorization token is discarded and
	//    counted as a violation (§5.2).
	forged := message.New(message.TraceFailed,
		topic.ChangeNotifications(ent.TraceTopic()), "eve", []byte("forged"))
	_ = eveConn.Publish(forged)
	deadline := time.Now().Add(5 * time.Second)
	for tb.Brokers[0].Snapshot().Counters["broker_violations_total"] == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if v := tb.Brokers[0].Snapshot().Counters["broker_violations_total"]; v > 0 {
		fmt.Printf("broker: discarded the forged trace (%d violation(s) recorded)\n", v)
	} else {
		log.Fatal("forged trace was not rejected")
	}

	fmt.Println("\nall security properties held")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
