package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sample is one labeled value of a counter family. Labels are
// positional, matching the label names the family was registered with.
type Sample struct {
	Labels []string
	Value  float64
}

// family is one registered metric family. Exactly one of collect /
// collectSize is set, depending on kind.
type family struct {
	name, help, kind string
	labels           []string
	collect          func() []Sample
	collectSize      func() []SizeSample
}

// Registry collects metric families and renders them in the Prometheus
// text exposition format. Families are registered once (name collisions
// panic — a programming error) and collected lazily at scrape time via
// their callbacks, so registration is cheap and values are always
// current. Safe for concurrent registration and scraping.
type Registry struct {
	mu       sync.Mutex
	families []family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// add validates and records a family.
func (r *Registry) add(f family) {
	if !metricName.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !metricName.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.families {
		if have.name == f.name {
			panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
		}
	}
	r.families = append(r.families, f)
}

// Counter registers an unlabeled monotonic counter read from fn.
func (r *Registry) Counter(name, help string, fn func() uint64) {
	r.add(family{name: name, help: help, kind: "counter",
		collect: func() []Sample { return []Sample{{Value: float64(fn())}} }})
}

// CounterVec registers a labeled counter family collected from fn.
func (r *Registry) CounterVec(name, help string, labels []string, fn func() []Sample) {
	r.add(family{name: name, help: help, kind: "counter", labels: labels, collect: fn})
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// labelString renders {k="v",...}; extra appends one more pair (used
// for histogram le bounds). Empty input renders nothing.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(val))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format.
// Samples within a family are sorted by label values, so the output is
// deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]family(nil), r.families...)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		if f.collectSize != nil {
			samples := f.collectSize()
			sort.Slice(samples, func(i, j int) bool {
				return labelLess(samples[i].Labels, samples[j].Labels)
			})
			for _, s := range samples {
				writeSizeHistogram(bw, f, s)
			}
			continue
		}
		samples := f.collect()
		sort.Slice(samples, func(i, j int) bool {
			return labelLess(samples[i].Labels, samples[j].Labels)
		})
		for _, s := range samples {
			fmt.Fprintf(bw, "%s%s %s\n", f.name,
				labelString(f.labels, s.Labels, "", ""), formatValue(s.Value))
		}
	}
	return bw.Flush()
}

// writeSizeHistogram renders one unitless histogram sample: cumulative
// buckets with integer le bounds, then _sum and _count.
func writeSizeHistogram(w io.Writer, f family, s SizeSample) {
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Snap.Counts[i]
		le := "+Inf"
		if b := SizeBucketBound(i); b >= 0 {
			le = strconv.FormatInt(b, 10)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, s.Labels, "le", le), cum)
	}
	ls := labelString(f.labels, s.Labels, "", "")
	fmt.Fprintf(w, "%s_sum%s %d\n", f.name, ls, s.Snap.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, s.Snap.Count)
}

// labelLess orders label value slices lexicographically.
func labelLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Handler returns an http.Handler serving the exposition text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
