package obs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// This file is the one trace renderer: -trace-out, the flight log's
// trailer and the live SSE /traces stream all write an event with
// appendEvent. It writes what encoding/json wrote for the line's old
// wire struct (seq, t_ns, kind, name, and attrs as a map[string]any):
// attrs keys sorted bytewise with a repeated key keeping its last
// value, strings escaped as encoding/json escapes them (HTML-safe),
// floats formatted with its 'f'/'e' cut-offs. The four stored value
// kinds (int, int64, float64, string) need no map and no reflection;
// a value of any other kind does not render. The map-based rendering
// is kept in the tests as the oracle.

// MarshalEvent renders one event as the canonical JSON object used by
// both the -trace-out JSONL artifact and the live SSE /traces stream.
func MarshalEvent(e Event) ([]byte, error) {
	fields := make([]field, len(e.Attrs))
	for i, a := range e.Attrs {
		fields[i] = fieldOf(a)
	}
	line, err := appendEvent(nil, e.Seq, e.T, e.Name, fields)
	if err != nil {
		return nil, fmt.Errorf("obs: marshal trace event %d: %w", e.Seq, err)
	}
	return line, nil
}

// appendEvent appends one event's JSON object to b. It sorts fields by
// key.
func appendEvent(b []byte, seq int, at time.Duration, name string, fields []field) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, at.Nanoseconds(), 10)
	b = append(b, `,"kind":"event","name":`...)
	b = appendJSONString(b, name)
	if len(fields) > 0 {
		slices.SortStableFunc(fields, func(x, y field) int { return strings.Compare(x.key, y.key) })
		b = append(b, `,"attrs":{`...)
		for i := range fields {
			f := &fields[i]
			// A map holds a repeated key once, with its last value.
			if i+1 < len(fields) && fields[i+1].key == f.key {
				continue
			}
			if b[len(b)-1] != '{' {
				b = append(b, ',')
			}
			b = appendJSONString(b, f.key)
			b = append(b, ':')
			if err := f.check(); err != nil {
				return b, err
			}
			switch f.tag {
			case tagInt, tagInt64:
				b = strconv.AppendInt(b, int64(f.num), 10)
			case tagFloat:
				b = appendJSONFloat(b, math.Float64frombits(f.num))
			case tagString:
				b = appendJSONString(b, f.str)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendJSONFloat formats a finite float as encoding/json does: like
// ES6 number-to-string, 'e' below 1e-6 and from 1e21 on, with the
// exponent not padded to two digits.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping on: <, > and & as \u00XX, control bytes as their
// short escape or \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029
// escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
