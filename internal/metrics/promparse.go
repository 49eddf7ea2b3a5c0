package metrics

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromSample is one sample line of a Prometheus text-format scrape.
type PromSample struct {
	// Name is the sample's full name, including any _sum/_count
	// suffix of a summary.
	Name   string
	Labels map[string]string
	Value  float64
}

// Key returns a canonical identity for duplicate-series detection:
// the name plus the sorted label pairs.
func (s PromSample) Key() string {
	var b strings.Builder
	b.WriteString(s.Name)
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	// Insertion sort: label sets are tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%q}", k, s.Labels[k])
	}
	return b.String()
}

// PromMetric groups a scrape's samples under one metric family.
type PromMetric struct {
	// Name is the family name (a summary's _sum/_count samples
	// group under the base name).
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// ParseProm parses a Prometheus text-format exposition (the subset
// the daemon emits: # HELP, # TYPE, and sample lines with optional
// {label="value"} sets). It returns metric families in scrape order.
// Sample lines whose family has no preceding # TYPE are grouped under
// an entry with an empty Type — the conformance test treats that as a
// failure, so the parser must not drop them.
func ParseProm(r io.Reader) ([]PromMetric, error) {
	byName := map[string]*PromMetric{}
	var order []*PromMetric
	family := func(name string) *PromMetric {
		if m, ok := byName[name]; ok {
			return m
		}
		m := &PromMetric{Name: name}
		byName[name] = m
		order = append(order, m)
		return m
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			family(name).Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, _ := strings.Cut(rest, " ")
			family(name).Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := sample.Name
		// A summary's _sum/_count belong to the base family.
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(sample.Name, suffix); ok {
				if m, exists := byName[base]; exists && m.Type == "summary" {
					fam = base
				}
				break
			}
		}
		family(fam).Samples = append(family(fam).Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]PromMetric, len(order))
	for i, m := range order {
		out[i] = *m
	}
	return out, nil
}

func parseSampleLine(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest[1:], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("missing value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads a label set through its closing brace and returns
// the rest of the line. The scan is quote-aware: a '}' inside a quoted
// value does not end the set.
func parseLabels(in string, out map[string]string) (string, error) {
	for {
		in = strings.TrimSpace(in)
		if in == "" {
			return "", errors.New("unterminated label set")
		}
		if in[0] == '}' {
			return in[1:], nil
		}
		eq := strings.IndexAny(in, "=}")
		if eq < 0 || in[eq] == '}' {
			return "", fmt.Errorf("label without value: %q", in)
		}
		key := strings.TrimSpace(in[:eq])
		in = in[eq+1:]
		if !strings.HasPrefix(in, `"`) {
			return "", fmt.Errorf("unquoted label value for %q", key)
		}
		// Walk the quoted value honoring backslash escapes.
		i := 1
		var val strings.Builder
		for i < len(in) {
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case 'n':
					val.WriteByte('\n')
				case 't':
					val.WriteByte('\t')
				default:
					val.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		if i >= len(in) {
			return "", fmt.Errorf("unterminated value for %q", key)
		}
		out[key] = val.String()
		in = strings.TrimPrefix(strings.TrimSpace(in[i+1:]), ",")
	}
}
