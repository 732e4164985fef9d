package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestLintRealExposition is the promtool-check-metrics-equivalent gate:
// a registry exercising every instrument shape (plain counter, labeled
// counter, gauge, histogram, labeled histogram, infinities) must emit a
// document the linter accepts.
func TestLintRealExposition(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(7)
	r.Counter(Name("b_total", "engine", 3)).Add(2)
	r.Gauge("g").Set(1.5)
	r.Gauge(`build_info{go_version="go1.22.0",gomaxprocs="8",version="dev"}`).Set(1)
	h := r.Histogram("h_cycles", []float64{10, 100})
	h.ObserveInt(5)
	h.ObserveInt(500)
	r.Histogram(Name("l_cycles", "engine", 1), []float64{10}).ObserveInt(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("lint rejected the registry's own exposition: %v\n%s", err, buf.String())
	}
}

func TestLintRejectsCorruptDocuments(t *testing.T) {
	cases := []struct{ name, doc, wantErr string }{
		{"bad metric name", "1bad_name 3\n", "invalid metric name"},
		{"bad TYPE kind", "# TYPE x flavor\nx 1\n", "unknown metric type"},
		{"TYPE after sample", "x 1\n# TYPE x counter\n", "after its first sample"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x gauge\nx 1\n", "duplicate TYPE"},
		{"duplicate series", "x 1\nx 2\n", "duplicate series"},
		{"duplicate labeled series", `x{a="1"} 1` + "\n" + `x{a="1"} 2` + "\n", "duplicate series"},
		{"missing value", "x\n", "sample without value"},
		{"unparseable value", "x banana\n", "unparseable value"},
		{"unbalanced braces", "x}y 1\n", "invalid metric name"},
		{"bad label name", `x{1a="v"} 1` + "\n", "invalid label name"},
		{"unquoted label value", `x{a=v} 1` + "\n", "not quoted"},
		{"bucket without le", `x_bucket{a="1"} 1` + "\n", "without le"},
		{
			"non-cumulative buckets",
			`x_bucket{le="1"} 5` + "\n" + `x_bucket{le="2"} 3` + "\n" + `x_bucket{le="+Inf"} 5` + "\nx_count 5\n",
			"non-cumulative",
		},
		{
			"no +Inf bucket",
			`x_bucket{le="1"} 5` + "\nx_count 5\n",
			"no +Inf bucket",
		},
		{
			"+Inf disagrees with count",
			`x_bucket{le="+Inf"} 4` + "\nx_count 5\n",
			"!= _count",
		},
	}
	for _, c := range cases {
		err := LintPrometheus(strings.NewReader(c.doc))
		if err == nil {
			t.Errorf("%s: lint accepted\n%s", c.name, c.doc)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestLintAcceptsValidCorners(t *testing.T) {
	doc := "# HELP x free text here\n" +
		"# a bare comment\n" +
		"# TYPE x counter\n" +
		"x 1\n" +
		`y{a="with \"escaped\", comma"} 2.5e-3` + "\n" +
		"z +Inf\n" +
		`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\n" +
		"h_sum 3\nh_count 2\n"
	if err := LintPrometheus(strings.NewReader(doc)); err != nil {
		t.Fatalf("lint rejected a valid document: %v", err)
	}
}

// TestMetricsMethodGuard is the regression test for the fix where the
// metrics endpoints answered 200 to any method: non-GET must now be 405
// with an Allow header, and every 200 carries an explicit charset.
func TestMetricsMethodGuard(t *testing.T) {
	r := New()
	r.Counter("x_total").Add(1)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	cases := []struct{ path, ct string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json; charset=utf-8"},
	}
	for _, c := range cases {
		res, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", c.path, res.StatusCode)
		}
		if got := res.Header.Get("Content-Type"); got != c.ct {
			t.Fatalf("GET %s: Content-Type %q, want %q", c.path, got, c.ct)
		}

		res, err = http.Post(srv.URL+c.path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: %d, want 405", c.path, res.StatusCode)
		}
		if res.Header.Get("Allow") != "GET" {
			t.Fatalf("POST %s: Allow %q, want GET", c.path, res.Header.Get("Allow"))
		}
	}
}

// LintPrometheus is a `promtool check metrics`-equivalent linter for the
// text exposition format this package emits. Tests feed it this
// package's exporter output and a live server's /metrics body, so an
// exporter regression (bad escaping, duplicate series, non-cumulative
// buckets) fails a test with the offending line instead of silently
// breaking scrapes in the field.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintPrometheus validates a Prometheus text-exposition document:
// metric and label name syntax, parseable sample values, TYPE comments
// preceding their first sample (at most one per metric), no duplicate
// series, and — for histograms — cumulative non-decreasing buckets whose
// +Inf count equals _count. It returns the first violation found, with
// its 1-based line number.
func LintPrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	typed := map[string]string{}    // base metric -> declared type
	sampled := map[string]bool{}    // base metrics that already have samples
	seen := map[string]bool{}       // full series (name+labels) seen
	bucketCum := map[string]int64{} // histogram series prefix -> last cumulative count
	bucketInf := map[string]int64{} // histogram series prefix -> +Inf count
	counts := map[string]int64{}    // histogram series prefix -> _count value

	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := lintComment(text, line, typed, sampled); err != nil {
				return err
			}
			continue
		}
		name, labels, value, err := splitSample(text, line)
		if err != nil {
			return err
		}
		series := name
		if labels != "" {
			series += "{" + labels + "}"
		}
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %s", line, series)
		}
		seen[series] = true
		sampled[baseName(name)] = true

		if strings.HasSuffix(name, "_bucket") {
			prefix := strings.TrimSuffix(name, "_bucket") + "{" + stripLE(labels) + "}"
			le, ok := labelValue(labels, "le")
			if !ok {
				return fmt.Errorf("line %d: histogram bucket without le label: %s", line, text)
			}
			n := int64(value)
			if le == "+Inf" {
				bucketInf[prefix] = n
			}
			if last, ok := bucketCum[prefix]; ok && n < last {
				return fmt.Errorf("line %d: non-cumulative histogram bucket %s (le=%s: %d < %d)",
					line, name, le, n, last)
			}
			bucketCum[prefix] = n
		}
		if strings.HasSuffix(name, "_count") {
			prefix := strings.TrimSuffix(name, "_count") + "{" + labels + "}"
			counts[prefix] = int64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// Histogram closure: every bucket family must end in +Inf matching
	// its _count. Iterate sorted for a deterministic first error.
	prefixes := make([]string, 0, len(bucketCum))
	for p := range bucketCum {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		inf, ok := bucketInf[p]
		if !ok {
			return fmt.Errorf("histogram %s has no +Inf bucket", p)
		}
		if c, ok := counts[p]; ok && c != inf {
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", p, inf, c)
		}
	}
	return nil
}

func lintComment(text string, line int, typed map[string]string, sampled map[string]bool) error {
	if !strings.HasPrefix(text, "# TYPE ") {
		return nil // HELP and free comments are unconstrained
	}
	fields := strings.Fields(text)
	if len(fields) != 4 {
		return fmt.Errorf("line %d: malformed TYPE comment: %s", line, text)
	}
	name, kind := fields[2], fields[3]
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("line %d: invalid metric name in TYPE: %q", line, name)
	}
	switch kind {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("line %d: unknown metric type %q", line, kind)
	}
	if _, dup := typed[name]; dup {
		return fmt.Errorf("line %d: duplicate TYPE for %s", line, name)
	}
	if sampled[name] {
		return fmt.Errorf("line %d: TYPE for %s after its first sample", line, name)
	}
	typed[name] = kind
	return nil
}

// splitSample parses `name{labels} value [timestamp]`, validating name,
// label and value syntax.
func splitSample(text string, line int) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 {
		name = text[:i]
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("line %d: unbalanced braces: %s", line, text)
		}
		labels = text[i+1 : j]
		rest = strings.TrimSpace(text[j+1:])
		if err := lintLabels(labels, line); err != nil {
			return "", "", 0, err
		}
	} else {
		fields := strings.SplitN(text, " ", 2)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("line %d: sample without value: %s", line, text)
		}
		name, rest = fields[0], strings.TrimSpace(fields[1])
	}
	if !metricNameRe.MatchString(name) {
		return "", "", 0, fmt.Errorf("line %d: invalid metric name %q", line, name)
	}
	vf := strings.Fields(rest)
	if len(vf) < 1 || len(vf) > 2 {
		return "", "", 0, fmt.Errorf("line %d: want `value [timestamp]`, got %q", line, rest)
	}
	value, perr := strconv.ParseFloat(vf[0], 64)
	if perr != nil && vf[0] != "+Inf" && vf[0] != "-Inf" && vf[0] != "NaN" {
		return "", "", 0, fmt.Errorf("line %d: unparseable value %q", line, vf[0])
	}
	if vf[0] == "+Inf" {
		value = math.Inf(1)
	}
	return name, labels, value, nil
}

// lintLabels validates a comma-separated k="v" list (values may contain
// escaped quotes).
func lintLabels(labels string, line int) error {
	for _, pair := range splitLabelPairs(labels) {
		if pair == "" {
			continue
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return fmt.Errorf("line %d: label without '=': %q", line, pair)
		}
		k, v := pair[:eq], pair[eq+1:]
		if !labelNameRe.MatchString(k) {
			return fmt.Errorf("line %d: invalid label name %q", line, k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("line %d: label value not quoted: %q", line, pair)
		}
	}
	return nil
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(labels string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(labels); i++ {
		c := labels[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(labels):
			b.WriteByte(c)
			i++
			b.WriteByte(labels[i])
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, strings.TrimSpace(b.String()))
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if b.Len() > 0 {
		out = append(out, strings.TrimSpace(b.String()))
	}
	return out
}

// stripLE removes the le pair from a bucket's label list, yielding the
// series identity shared by its histogram's _sum/_count.
func stripLE(labels string) string {
	var kept []string
	for _, pair := range splitLabelPairs(labels) {
		if eq := strings.IndexByte(pair, '='); eq > 0 && pair[:eq] == "le" {
			continue
		}
		if pair != "" {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

// labelValue extracts one label's (unquoted) value from a label list.
func labelValue(labels, key string) (string, bool) {
	for _, pair := range splitLabelPairs(labels) {
		if eq := strings.IndexByte(pair, '='); eq > 0 && pair[:eq] == key {
			v := pair[eq+1:]
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}
