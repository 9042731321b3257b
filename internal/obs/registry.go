package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one exposition family: a name, help string, type, an
// optional single label key and the per-label-value series. Unlabeled
// families hold exactly one series under the empty label value.
type family struct {
	name   string
	help   string
	kind   metricKind
	label  string // "" for unlabeled families
	bounds []float64

	series map[string]any // label value -> *Counter | *Gauge | *Histogram
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is idempotent (see the package
// doc); the zero value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family registered under name, creating it when new
// and panicking when an existing family disagrees on type or label key:
// two subsystems fighting over one name with different schemas is a
// programming error that silent merging would hide.
func (r *Registry) lookup(name, help string, kind metricKind, label string) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, label: label, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s(label=%q), was %s(label=%q)",
			name, kind, label, f.kind, f.label))
	}
	return f
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter, "")
	c, ok := f.series[""].(*Counter)
	if !ok {
		c = &Counter{}
		f.series[""] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge, "")
	g, ok := f.series[""].(*Gauge)
	if !ok {
		g = &Gauge{}
		f.series[""] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (nil → DefBuckets) if needed.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.lookup(name, help, kindHistogram, "")
	h, ok := f.series[""].(*Histogram)
	if !ok {
		h = newHistogram(bounds)
		f.bounds = h.Bounds()
		f.series[""] = h
	}
	return h
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec returns the labeled counter family registered under name,
// creating it if needed. label is the single label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if label == "" {
		panic("obs: CounterVec with empty label key")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &CounterVec{r: r, f: r.lookup(name, help, kindCounter, label)}
}

// With returns the counter for one label value, creating it if needed.
func (v *CounterVec) With(value string) *Counter {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	c, ok := v.f.series[value].(*Counter)
	if !ok {
		c = &Counter{}
		v.f.series[value] = c
	}
	return c
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it with the given bucket bounds (nil → DefBuckets) if
// needed. Every series of the family shares the bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if label == "" {
		panic("obs: HistogramVec with empty label key")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.lookup(name, help, kindHistogram, label)
	if f.bounds == nil {
		f.bounds = append([]float64(nil), bounds...)
	}
	return &HistogramVec{r: r, f: f}
}

// With returns the histogram for one label value, creating it if needed.
func (v *HistogramVec) With(value string) *Histogram {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	h, ok := v.f.series[value].(*Histogram)
	if !ok {
		h = newHistogram(v.f.bounds)
		v.f.series[value] = h
	}
	return h
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label value, help text and label values escaped. The output is a
// point-in-time snapshot; see the package doc for its consistency
// contract.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family pointers, then render outside the lock:
	// instruments are atomic.
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	if f.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(string(f.kind))
	b.WriteByte('\n')

	values := make([]string, 0, len(f.series))
	for v := range f.series {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, lv := range values {
		switch m := f.series[lv].(type) {
		case *Counter:
			b.WriteString(f.name)
			writeLabels(b, f.label, lv, "", 0)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(m.Value(), 10))
			b.WriteByte('\n')
		case *Gauge:
			b.WriteString(f.name)
			writeLabels(b, f.label, lv, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(m.Value()))
			b.WriteByte('\n')
		case *Histogram:
			renderHistogram(b, f, lv, m)
		}
	}
}

// renderHistogram emits the cumulative _bucket series plus _sum and
// _count for one histogram series.
func renderHistogram(b *strings.Builder, f *family, lv string, h *Histogram) {
	counts := h.BucketCounts()
	bounds := h.Bounds()
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.label, lv, "le", bound)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	cum += counts[len(counts)-1]
	b.WriteString(f.name)
	b.WriteString("_bucket")
	writeLabels(b, f.label, lv, "le", math.Inf(1))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')

	b.WriteString(f.name)
	b.WriteString("_sum")
	writeLabels(b, f.label, lv, "", 0)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(f.name)
	b.WriteString("_count")
	writeLabels(b, f.label, lv, "", 0)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

// writeLabels renders the label braces: the family label (when set) and
// the histogram le label (when leKey is non-empty), in that order.
func writeLabels(b *strings.Builder, key, value, leKey string, le float64) {
	if key == "" && leKey == "" {
		return
	}
	b.WriteByte('{')
	first := true
	if key != "" {
		b.WriteString(key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(value))
		b.WriteByte('"')
		first = false
	}
	if leKey != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
