package brokerdir

import (
	"encoding/hex"
	"testing"
	"time"
)

// goldenEntry is a fixed directory entry; goldenEntryHex is its wire
// form as the codec has always written it, ending in the epoch, and
// goldenEntryNoEpochHex the same entry as a pre-epoch peer wrote it.
var goldenEntry = Entry{Name: "broker-1", Transport: "tcp", Addr: "127.0.0.1:7462", Load: 3.5, Epoch: 12}

const (
	goldenEntryHex        = "0000000862726f6b65722d31000000037463700000000e3132372e302e302e313a3734363200000000003567e0000000000000000c"
	goldenEntryNoEpochHex = "0000000862726f6b65722d31000000037463700000000e3132372e302e302e313a3734363200000000003567e0"
)

// TestGoldenEntry pins the entry wire form: the encoding, the decoding
// with and without the trailing epoch, and that bytes after the epoch
// are ignored.
func TestGoldenEntry(t *testing.T) {
	if got := hex.EncodeToString(encodeEntry(&goldenEntry)); got != goldenEntryHex {
		t.Fatalf("entry encoding changed:\n got %s\nwant %s", got, goldenEntryHex)
	}
	noEpoch := goldenEntry
	noEpoch.Epoch = 0
	for _, tc := range []struct {
		hex  string
		want Entry
	}{
		{goldenEntryHex, goldenEntry},
		{goldenEntryHex + "ffff", goldenEntry},
		{goldenEntryNoEpochHex, noEpoch},
	} {
		raw, _ := hex.DecodeString(tc.hex)
		e, err := decodeEntry(raw)
		if err != nil {
			t.Fatalf("%s: %v", tc.hex, err)
		}
		if *e != tc.want {
			t.Errorf("%s decodes to %+v, want %+v", tc.hex, *e, tc.want)
		}
	}
}

// FuzzRegister throws arbitrary register bodies at Server.dispatch,
// seeded with the golden entries: no panic, one status byte back, and
// an accepted entry re-encodes to bytes that decode to the same entry.
func FuzzRegister(f *testing.F) {
	for _, h := range []string{goldenEntryHex, goldenEntryNoEpochHex} {
		raw, _ := hex.DecodeString(h)
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewServer(NewDirectory(time.Minute))
		if resp := srv.dispatch(append([]byte{opRegister}, body...)); len(resp) != 1 {
			t.Fatalf("register answered %x", resp)
		}
		e, err := decodeEntry(body)
		if err != nil {
			return
		}
		back, err := decodeEntry(encodeEntry(e))
		if err != nil {
			t.Fatalf("accepted entry does not round trip: %v", err)
		}
		if *back != *e {
			t.Fatalf("round trip changed %+v to %+v", *e, *back)
		}
	})
}
