package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// redactedMarkers are substrings of field keys whose values must never
// reach a log sink: key material, tokens, credentials, signatures. A
// matched value is replaced with a length-only placeholder.
var redactedMarkers = []string{"token", "key", "secret", "passw", "sign", "cred", "cert", "private"}

// Redacted reports whether values logged under key are replaced with a
// placeholder.
func Redacted(key string) bool {
	lk := strings.ToLower(key)
	for _, m := range redactedMarkers {
		if strings.Contains(lk, m) {
			return true
		}
	}
	return false
}

// NewLogger writes one line per record to w at or above level: key=value
// text, or one JSON object per line when jsonFormat is set. Every attr,
// including those added with With, passes through replaceAttr.
func NewLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		return replaceAttr(a, jsonFormat)
	}}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// replaceAttr holds the output contract: the record time is a top-level
// `ts` key in RFC3339Nano UTC; a value under a Redacted key becomes a
// size-preserving placeholder, so logs stay diagnostic ("a 300-byte
// token was present") without leaking material; and in JSON, durations
// and Stringers (UUIDs, entity IDs — often byte-array-backed) render as
// their string form, matching the text format. Errors and types with
// their own JSON marshaling keep slog's rendering.
func replaceAttr(a slog.Attr, jsonFormat bool) slog.Attr {
	switch {
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case Redacted(a.Key):
		switch v := a.Value.Any().(type) {
		case string:
			return slog.String(a.Key, fmt.Sprintf("[REDACTED %d bytes]", len(v)))
		case []byte:
			return slog.String(a.Key, fmt.Sprintf("[REDACTED %d bytes]", len(v)))
		}
		return slog.String(a.Key, "[REDACTED]")
	case !jsonFormat:
		return a
	case a.Value.Kind() == slog.KindDuration:
		return slog.String(a.Key, a.Value.Duration().String())
	case a.Value.Kind() == slog.KindAny:
		switch v := a.Value.Any().(type) {
		case error, json.Marshaler:
		case fmt.Stringer:
			return slog.String(a.Key, v.String())
		}
	}
	return a
}

// discardHandler is never enabled, so a record logged through it is
// never built.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

var discard = slog.New(discardHandler{})

// OrDiscard returns l, or the shared silent logger when l is nil: how
// every holder keeps "a nil logger means silent".
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}
