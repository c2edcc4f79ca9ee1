package token

import (
	"errors"
	"testing"
	"time"

	"entitytrace/internal/clock"
)

// TestExpiryBoundaries drives a fake clock across every edge of the
// validity window: issuance, the exact NotBefore/NotAfter instants, and
// each side of the skew tolerance (§4.3's NTP-bounded clock model).
func TestExpiryBoundaries(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	const validity = time.Minute
	d := grant(t, RightPublish, validity, start)
	notAfter := start.Add(validity)

	// Chronological order: the fake clock only moves forward (Set
	// refuses to travel back), so it starts at the earliest probe.
	cases := []struct {
		name    string
		at      time.Time
		skew    time.Duration
		wantErr error
	}{
		{"before window beyond skew", start.Add(-MaxClockSkew - time.Nanosecond), MaxClockSkew, ErrExpired},
		{"before window within skew", start.Add(-MaxClockSkew), MaxClockSkew, nil},
		{"exactly NotBefore", start, MaxClockSkew, nil},
		{"mid window", start.Add(validity / 2), MaxClockSkew, nil},
		{"exactly NotAfter", notAfter, MaxClockSkew, nil},
		{"expired with tighter skew", notAfter.Add(MinClockSkew + time.Nanosecond), MinClockSkew, ErrExpired},
		{"expired within skew", notAfter.Add(MaxClockSkew), MaxClockSkew, nil},
		{"expired one tick beyond skew", notAfter.Add(MaxClockSkew + time.Nanosecond), MaxClockSkew, ErrExpired},
		{"expired long after", notAfter.Add(time.Hour), MaxClockSkew, ErrExpired},
	}
	fc := clock.NewFake(cases[0].at)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc.Set(tc.at)
			_, err := d.Token.Verify(ownerPair.Public, fc.Now(), tc.skew, RightPublish)
			if tc.wantErr == nil && err != nil {
				t.Fatalf("Verify at %v: %v", tc.at, err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Verify at %v: err=%v, want %v", tc.at, err, tc.wantErr)
			}
		})
	}
}

// TestClockSkewAsymmetry checks that the skew tolerance widens the
// window on both ends and that negative skew selects the default.
func TestClockSkewAsymmetry(t *testing.T) {
	start := time.Unix(2_000_000, 0)
	d := grant(t, RightPublish, time.Minute, start)
	end := start.Add(time.Minute)

	// Negative skew selects DefaultClockSkew: a point inside the default
	// tolerance verifies, a point outside does not.
	if _, err := d.Token.Verify(ownerPair.Public, end.Add(DefaultClockSkew), -1, RightPublish); err != nil {
		t.Fatalf("default-skew grace rejected: %v", err)
	}
	if _, err := d.Token.Verify(ownerPair.Public, end.Add(DefaultClockSkew+time.Millisecond), -1, RightPublish); !errors.Is(err, ErrExpired) {
		t.Fatalf("beyond default skew accepted, err=%v", err)
	}
	// Zero skew means the window is exact.
	if _, err := d.Token.Verify(ownerPair.Public, end.Add(time.Nanosecond), 0, RightPublish); !errors.Is(err, ErrExpired) {
		t.Fatalf("zero-skew grace accepted, err=%v", err)
	}
	if _, err := d.Token.Verify(ownerPair.Public, start.Add(-time.Nanosecond), 0, RightPublish); !errors.Is(err, ErrExpired) {
		t.Fatalf("zero-skew early accepted, err=%v", err)
	}
}
