package brokerdir

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"entitytrace/internal/transport"
)

func TestRegisterAndPick(t *testing.T) {
	d := NewDirectory(time.Minute)
	if err := d.Register("b1", "tcp", "127.0.0.1:1", 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("b2", "tcp", "127.0.0.1:2", 2); err != nil {
		t.Fatal(err)
	}
	e, err := d.Pick()
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "b2" {
		t.Fatalf("Pick = %q, want least-loaded b2", e.Name)
	}
}

func TestPickEmpty(t *testing.T) {
	d := NewDirectory(0)
	if _, err := d.Pick(); !errors.Is(err, ErrNoBrokers) {
		t.Fatalf("Pick on empty dir: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	d := NewDirectory(0)
	if err := d.Register("", "tcp", "a", 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := d.Register("b", "", "a", 0); err == nil {
		t.Fatal("empty transport accepted")
	}
	if err := d.Register("b", "tcp", "", 0); err == nil {
		t.Fatal("empty addr accepted")
	}
}

func TestTTLExpiry(t *testing.T) {
	d := NewDirectory(10 * time.Second)
	now := time.Unix(0, 0)
	d.SetTimeFunc(func() time.Time { return now })
	d.Register("b1", "tcp", "a:1", 0)
	now = now.Add(11 * time.Second)
	if _, err := d.Pick(); !errors.Is(err, ErrNoBrokers) {
		t.Fatalf("expired registration still picked: %v", err)
	}
	// Refresh keeps it alive.
	d.Register("b2", "tcp", "a:2", 0)
	now = now.Add(9 * time.Second)
	d.Register("b2", "tcp", "a:2", 1)
	now = now.Add(9 * time.Second)
	if _, err := d.Pick(); err != nil {
		t.Fatalf("refreshed registration expired: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Register("b1", "tcp", "a:1", 0)
	d.Deregister("b1")
	if _, err := d.Pick(); !errors.Is(err, ErrNoBrokers) {
		t.Fatal("deregistered broker still picked")
	}
}

func TestList(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Register("z", "tcp", "a:1", 0)
	d.Register("a", "udp", "a:2", 1)
	l := d.List()
	if len(l) != 2 || l[0].Name != "a" || l[1].Name != "z" {
		t.Fatalf("List = %+v", l)
	}
}

func TestTieBreakByName(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Register("b2", "tcp", "a:2", 1)
	d.Register("b1", "tcp", "a:1", 1)
	e, _ := d.Pick()
	if e.Name != "b1" {
		t.Fatalf("tie break picked %q", e.Name)
	}
}

func TestRPCEndToEnd(t *testing.T) {
	tr := transport.NewInproc()
	dir := NewDirectory(time.Minute)
	srv := NewServer(dir)
	l, err := tr.Listen("dir")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	defer srv.Close()

	c := NewClient(tr, "dir")
	if err := c.Register("b1", "inproc", "broker-1", 3.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("b2", "inproc", "broker-2", 1.25); err != nil {
		t.Fatal(err)
	}
	e, err := c.Pick()
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "b2" || e.Addr != "broker-2" || e.Load != 1.25 {
		t.Fatalf("Pick = %+v", e)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("List returned %d entries", len(list))
	}
	if err := c.Deregister("b2"); err != nil {
		t.Fatal(err)
	}
	e, err = c.Pick()
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "b1" {
		t.Fatalf("after deregister Pick = %q", e.Name)
	}
}

func TestRPCPickEmpty(t *testing.T) {
	tr := transport.NewInproc()
	srv := NewServer(NewDirectory(time.Minute))
	l, _ := tr.Listen("dir2")
	srv.Serve(l)
	defer srv.Close()
	c := NewClient(tr, "dir2")
	if _, err := c.Pick(); !errors.Is(err, ErrNoBrokers) {
		t.Fatalf("Pick over RPC on empty dir: %v", err)
	}
}

func TestRPCGarbage(t *testing.T) {
	tr := transport.NewInproc()
	srv := NewServer(NewDirectory(time.Minute))
	l, _ := tr.Listen("dir3")
	srv.Serve(l)
	defer srv.Close()
	conn, err := tr.Dial("dir3")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, frame := range [][]byte{{}, {77}, {opRegister, 1}} {
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) == 0 || resp[0] == statusOK {
			t.Fatalf("garbage frame %v accepted", frame)
		}
	}
}

func TestConnectBest(t *testing.T) {
	d := NewDirectory(time.Minute)
	if _, _, err := d.ConnectBest(); !errors.Is(err, ErrNoBrokers) {
		t.Fatalf("empty dir ConnectBest: %v", err)
	}
	d.Register("b1", "tcp", "127.0.0.1:9", 1)
	tr, addr, err := d.ConnectBest()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "tcp" || addr != "127.0.0.1:9" {
		t.Fatalf("ConnectBest = %s %s", tr.Name(), addr)
	}
	d.Register("b2", "carrier-pigeon", "coop:1", 0)
	if _, _, err := d.ConnectBest(); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestClientConnectBest(t *testing.T) {
	tr := transport.NewInproc()
	dir := NewDirectory(time.Minute)
	srv := NewServer(dir)
	l, _ := tr.Listen("dir-cb")
	srv.Serve(l)
	defer srv.Close()
	c := NewClient(tr, "dir-cb")
	if err := c.Register("b1", "udp", "127.0.0.1:10", 0.5); err != nil {
		t.Fatal(err)
	}
	trOut, addr, err := c.ConnectBest()
	if err != nil {
		t.Fatal(err)
	}
	if trOut.Name() != "udp" || addr != "127.0.0.1:10" {
		t.Fatalf("ConnectBest = %s %s", trOut.Name(), addr)
	}
}

// TestEntryLoad checks that a fractional load survives a round trip
// and that a load field past maxLoadMicros is refused.
func TestEntryLoad(t *testing.T) {
	for _, load := range []float64{0.3, 525466.742839, maxLoadMicros / 1e6} {
		e, err := decodeEntry(encodeEntry(&Entry{Name: "b", Transport: "tcp", Addr: "a", Load: load}))
		if err != nil || e.Load != load {
			t.Errorf("load %v decodes to %v (%v)", load, e.Load, err)
		}
	}
	raw := encodeEntry(&goldenEntry)
	binary.BigEndian.PutUint64(raw[len(raw)-16:], maxLoadMicros+1)
	if _, err := decodeEntry(raw); err == nil {
		t.Error("load over maxLoadMicros accepted")
	}
}
