package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a parser for the Prometheus text exposition
// format (version 0.0.4) — the inverse of WritePrometheus, covering
// the subset this repo emits (HELP/TYPE comments, counter/gauge/
// histogram sample lines, escaped label values). cmd/rwc-diff uses
// it to diff run artifacts and the CI live-serve smoke uses it to
// assert a scrape parses.

// PromSample is one parsed sample line: a metric name (including any
// _bucket/_sum/_count suffix), its canonically ordered labels, and the
// value.
type PromSample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Key renders the sample identity as name{labels} with sorted label
// keys — the same shape Registry.Totals uses, so parsed artifacts and
// live registries diff against each other directly.
func (s PromSample) Key() string {
	return s.Name + promLabels(sortedLabels(s.Labels))
}

// ParsePrometheusText parses an exposition into samples in input
// order. It fails loudly on malformed lines: the CI smoke treats any
// parse error as a broken scrape.
func ParsePrometheusText(r io.Reader) ([]PromSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []PromSample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			// HELP/TYPE/comment lines carry no values; series identity
			// and values are what the diff cares about.
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("prometheus text line %d: %w", lineNo, err)
		}
		out = append(out, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PromTotals parses an exposition and flattens it to Key() → value,
// mirroring Registry.Totals for artifact diffing. Duplicate sample
// keys are an error — a registry can never emit them.
func PromTotals(r io.Reader) (map[string]float64, error) {
	samples, err := ParsePrometheusText(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		key := s.Key()
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate series %s", key)
		}
		out[key] = s.Value
	}
	return out, nil
}

// parseSampleLine parses `name{k="v",...} value` (label set optional).
func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value on line %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	// The value may be followed by one integer timestamp (milliseconds,
	// as the format defines it; this repo never writes one) and nothing
	// else.
	fields := strings.Fields(rest)
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	if len(fields) > 2 {
		return s, fmt.Errorf("unexpected %q after the value and timestamp in %q", fields[2], line)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q in %q: %v", fields[1], line, err)
		}
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block, unescaping values, and
// returns the remainder of the line.
func parseLabels(in string) ([]Label, string, error) {
	if !strings.HasPrefix(in, "{") {
		return nil, "", fmt.Errorf("label block must start with '{'")
	}
	rest := in[1:]
	var labels []Label
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' near %q", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		if key == "" {
			return nil, "", fmt.Errorf("empty label name near %q", rest)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label value for %s must be quoted", key)
		}
		value, tail, err := unquoteLabelValue(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", key, err)
		}
		labels = append(labels, Label{Key: key, Value: value})
		rest = tail
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' after label %s near %q", key, rest)
	}
}

// unquoteLabelValue consumes an escaped value up to its closing quote
// (the inverse of escapeLabelValue) and returns it with the remainder.
func unquoteLabelValue(in string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch in[i] {
		case '"':
			return b.String(), in[i+1:], nil
		case '\\':
			if i+1 >= len(in) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", in[i])
			}
		default:
			b.WriteByte(in[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}
