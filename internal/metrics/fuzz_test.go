package metrics

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// escapeLabel escapes a label value per the Prometheus text format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// FuzzParseProm checks that ParseProm never panics on arbitrary input,
// and that a sample line built from a fuzzed value and fuzzed label
// values, escaped per the text format, parses back to the same labels
// and value.
func FuzzParseProm(f *testing.F) {
	f.Add(`m{a="x}y"} 1`, 1.0, "x}y", "")
	f.Add(`m{path="a\"b\\c",note="line\nbreak"} 1`, 0.25, `a"b\c`, "line\nbreak")
	f.Add("# TYPE s summary\ns_sum{q=\"0.5\"} 2\ns_count 3\n", math.Inf(-1), "{}", `\n`)
	f.Add(`m{a="unterminated} 1`, math.NaN(), "", "}")
	f.Fuzz(func(t *testing.T, raw string, v float64, a, b string) {
		ParseProm(strings.NewReader(raw)) // must not panic

		line := `m{a="` + escapeLabel(a) + `",b="` + escapeLabel(b) + `"} ` +
			strconv.FormatFloat(v, 'g', -1, 64)
		got, err := ParseProm(strings.NewReader(line))
		if err != nil {
			t.Fatalf("ParseProm(%q): %v", line, err)
		}
		if len(got) != 1 || len(got[0].Samples) != 1 {
			t.Fatalf("ParseProm(%q) = %+v, want one sample", line, got)
		}
		s := got[0].Samples[0]
		if s.Name != "m" || len(s.Labels) != 2 || s.Labels["a"] != a || s.Labels["b"] != b {
			t.Fatalf("ParseProm(%q) = %q %q, want labels a=%q b=%q", line, s.Name, s.Labels, a, b)
		}
		if s.Value != v && !(math.IsNaN(v) && math.IsNaN(s.Value)) {
			t.Fatalf("ParseProm(%q) value = %v, want %v", line, s.Value, v)
		}
	})
}
