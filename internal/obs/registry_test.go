package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+\-]+|\+Inf|NaN)$`)

// validatePrometheus parses exposition text, requiring every sample
// line to parse and every metric to carry HELP and TYPE headers before
// its samples. It returns the parsed samples as name{labels}→value.
func validatePrometheus(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("malformed comment: %q", line)
				continue
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Errorf("bad TYPE %q in %q", parts[3], line)
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable sample line: %q", line)
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[m[1]]; !ok {
				t.Errorf("sample %q has no TYPE header", m[1])
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("bad value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestRegistryExposition registers one of each metric kind and checks
// the rendered text parses, carries the expected values, and renders
// histograms with cumulative monotone buckets.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "Total ops.", func() uint64 { return 42 })
	reg.CounterVec("test_events_total", "Events by kind.", []string{"kind"},
		func() []Sample {
			return []Sample{{Labels: []string{"b"}, Value: 2}, {Labels: []string{"a"}, Value: 1}}
		})
	reg.CounterVec("test_state_total", `States with "quotes" and \slashes\.`, []string{"member"},
		func() []Sample { return []Sample{{Labels: []string{`m"1\`}, Value: 3}} })
	var h SizeHistogram
	h.Observe(1)
	h.Observe(500)
	h.Observe(2 << 20)
	reg.SizeHistogramVec("test_frame_bytes", "Frame sizes.", nil, func() []SizeSample {
		return []SizeSample{{Snap: h.Snapshot()}}
	})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := validatePrometheus(t, strings.NewReader(text))

	if samples["test_ops_total"] != 42 {
		t.Errorf("counter = %v", samples["test_ops_total"])
	}
	if samples[`test_events_total{kind="a"}`] != 1 || samples[`test_events_total{kind="b"}`] != 2 {
		t.Errorf("labeled counter missing: %v", text)
	}
	// Samples render sorted by label value, whatever order fn returns.
	if a, b := strings.Index(text, `test_events_total{kind="a"}`), strings.Index(text, `test_events_total{kind="b"}`); a > b {
		t.Errorf("samples out of label order:\n%s", text)
	}
	if samples[`test_state_total{member="m\"1\\"}`] != 3 {
		t.Errorf("escaped label missing from:\n%s", text)
	}
	if samples["test_frame_bytes_count"] != 3 {
		t.Errorf("histogram count = %v", samples["test_frame_bytes_count"])
	}
	if samples[`test_frame_bytes_bucket{le="+Inf"}`] != 3 {
		t.Error("+Inf bucket != count")
	}
	// Buckets are cumulative and monotone.
	prev := -1.0
	count := 0
	for line := range samples {
		if strings.HasPrefix(line, "test_frame_bytes_bucket") {
			count++
		}
	}
	if count != NumBuckets {
		t.Errorf("rendered %d buckets, want %d", count, NumBuckets)
	}
	for i := 0; i < numFinite; i++ {
		key := fmt.Sprintf(`test_frame_bytes_bucket{le="%d"}`, SizeBucketBound(i))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Errorf("bucket %s not monotone: %v < %v", key, v, prev)
		}
		prev = v
	}
}

// TestRegistryDuplicatePanics pins the registration contract.
func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Counter("dup_total", "x", func() uint64 { return 0 })
}

// TestServeEndpoints spins up the real mux and checks /metrics and
// /debug/vars respond.
func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve_total", "x", func() uint64 { return 7 })
	srv := httptest.NewServer(NewMux(reg, true))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples := validatePrometheus(t, resp.Body)
	if samples["serve_total"] != 7 {
		t.Errorf("metrics endpoint missing counter: %v", samples)
	}

	vars, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vars.Body.Close()
	body, _ := io.ReadAll(vars.Body)
	if !strings.Contains(string(body), "memstats") {
		t.Error("expvar endpoint missing memstats")
	}
}
