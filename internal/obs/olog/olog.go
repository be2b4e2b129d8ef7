// Package olog is the structured, leveled logger for the live
// operations plane: logfmt-style key=value lines on an io.Writer,
// timestamped from an injected clock so simulation packages can log
// without touching the wall clock (the nowalltime lint rule covers
// this package too).
//
// Logs are a *live stream*, not a run artifact: they go to stderr (or
// wherever the cmd layer points them) and are exempt from the
// byte-identity guarantee that covers metrics and traces — under
// -workers fan-out, lines from concurrent units interleave in
// completion order. Each individual line is still deterministic: the
// sim-time stamp and every value are derived from simulation state.
//
// Like the rest of internal/obs, a nil *Logger is the disabled state:
// every method is nil-receiver-safe, so instrumented packages log
// unconditionally and pay a nil check when logging is off.
package olog

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	// LevelDebug is per-round / per-order detail.
	LevelDebug Level = iota - 1
	// LevelInfo is run milestones (policy start/finish, figure done).
	LevelInfo
	// LevelWarn is recoverable oddities worth an operator's glance.
	LevelWarn
	// LevelError is failures the run surfaces to the user anyway.
	LevelError
	// LevelOff disables every record.
	LevelOff
)

// String names the level the way the log lines spell it.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none", "":
		return LevelOff, nil
	default:
		return LevelOff, fmt.Errorf("olog: unknown level %q (debug, info, warn, error, off)", s)
	}
}

// Clock supplies timestamps as offsets from an implementation-defined
// epoch. It is structurally identical to obs.Clock, so an *obs.SimClock
// plugs in directly.
type Clock interface {
	Now() time.Duration
}

// Logger writes logfmt lines. Derived loggers (With, WithClock) share
// the writer and mutex of their parent, so one stream stays
// line-atomic however many components log to it.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level Level
	clock Clock
	attrs string // pre-rendered bound context, "" or " k=v k=v"
}

// New returns a logger writing records at or above level to w.
func New(w io.Writer, level Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, level: level}
}

// WithClock returns a derived logger stamping each line with the
// clock's offset (rendered as a Go duration, e.g. sim=18h0m0s). The
// simulation layer binds the run's *obs.SimClock; a nil clock removes
// the stamp.
func (l *Logger) WithClock(c Clock) *Logger {
	if l == nil {
		return nil
	}
	cp := *l
	cp.clock = c
	return &cp
}

// With returns a derived logger with key/value pairs bound to every
// record (rendered after msg, before per-call pairs).
func (l *Logger) With(kvs ...any) *Logger {
	if l == nil || len(kvs) == 0 {
		return l
	}
	cp := *l
	var b strings.Builder
	b.WriteString(l.attrs)
	appendKVs(&b, kvs)
	cp.attrs = b.String()
	return &cp
}

// Enabled reports whether records at the given level would be written.
// Hot call sites guard expensive attribute construction with it.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && l.w != nil && level >= l.level && l.level < LevelOff
}

// Debug logs per-round / per-decision detail.
func (l *Logger) Debug(msg string, kvs ...any) { l.log(LevelDebug, msg, kvs) }

// Info logs run milestones.
func (l *Logger) Info(msg string, kvs ...any) { l.log(LevelInfo, msg, kvs) }

// Warn logs recoverable oddities.
func (l *Logger) Warn(msg string, kvs ...any) { l.log(LevelWarn, msg, kvs) }

// Error logs failures.
func (l *Logger) Error(msg string, kvs ...any) { l.log(LevelError, msg, kvs) }

func (l *Logger) log(level Level, msg string, kvs []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString("level=")
	b.WriteString(level.String())
	if l.clock != nil {
		b.WriteString(" sim=")
		b.WriteString(l.clock.Now().String())
	}
	b.WriteString(" msg=")
	b.WriteString(formatValue(msg))
	b.WriteString(l.attrs)
	appendKVs(&b, kvs)
	b.WriteByte('\n')
	l.mu.Lock()
	// Best-effort stream: a failed log write must not fail the run.
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// appendKVs renders pairs as " k=v"; a trailing key without a value
// renders as k=(missing) rather than being dropped silently.
func appendKVs(b *strings.Builder, kvs []any) {
	for i := 0; i < len(kvs); i += 2 {
		key, ok := kvs[i].(string)
		if !ok {
			key = fmt.Sprint(kvs[i])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		if i+1 < len(kvs) {
			b.WriteString(formatValue(kvs[i+1]))
		} else {
			b.WriteString("(missing)")
		}
	}
}

// formatValue renders one value deterministically: shortest-form
// floats (matching the metrics exposition), bare tokens unquoted,
// anything with spaces, quotes, or '=' quoted.
func formatValue(v any) string {
	var s string
	switch x := v.(type) {
	case string:
		s = x
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	case time.Duration:
		s = x.String()
	case fmt.Stringer:
		s = x.String()
	case error:
		s = x.Error()
	default:
		s = fmt.Sprint(v)
	}
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
