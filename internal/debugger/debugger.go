// Package debugger is the semantic debugger of Figure 1 (Part VI): it
// learns application semantics from the data it sees — numeric ranges,
// value formats, and inter-attribute dependencies — then monitors the data
// generation process and flags values "not in sync" with those semantics.
// The paper's example is exactly the check implemented here: having
// learned that monthly city temperatures do not exceed ~130 degrees, the
// debugger flags an extracted 135 as suspicious.
package debugger

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// Severity grades a violation.
type Severity string

const (
	// SevWarn marks mildly unusual values.
	SevWarn Severity = "warn"
	// SevSuspect marks values the debugger believes are wrong.
	SevSuspect Severity = "suspect"
)

// Violation is one flagged datum.
type Violation struct {
	Entity     string
	Attribute  string
	Value      string
	Constraint string
	Severity   Severity
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s.%s=%q violates %s", v.Severity, v.Entity, v.Attribute, v.Value, v.Constraint)
}

// rangeModel captures robust numeric bounds learned from observations.
type rangeModel struct {
	values []float64
	sorted bool
}

func (m *rangeModel) add(v float64) {
	m.values = append(m.values, v)
	m.sorted = false
}

// robustBounds returns a trimmed-support fence: [q05 - m*w, q95 + m*w]
// where w = q95 - q05 and m is the margin. Trimming at the 5th/95th
// percentiles keeps the fence robust to a minority of corrupted training
// observations, while the margin tolerates legitimate tail values.
func (m *rangeModel) robustBounds(margin float64) (lo, hi float64, ok bool) {
	if len(m.values) < 8 {
		return 0, 0, false
	}
	if !m.sorted {
		sort.Float64s(m.values)
		m.sorted = true
	}
	q05 := quantile(m.values, 0.05)
	q95 := quantile(m.values, 0.95)
	w := q95 - q05
	if w == 0 {
		w = math.Max(1, math.Abs(q95)*0.05)
	}
	return q05 - margin*w, q95 + margin*w, true
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// formatModel tracks which shape classes an attribute's values take
// (numeric, year-like, capitalized word, free text).
type formatModel struct {
	counts map[string]int
	total  int
}

var (
	reNumeric = regexp.MustCompile(`^-?\d+(\.\d+)?$`)
	reYear    = regexp.MustCompile(`^(1[6-9]\d\d|20\d\d)$`)
	reProper  = regexp.MustCompile(`^[A-Z][a-z]+([ ,-][A-Z]?[a-z]+)*$`)
)

func shapeOf(v string) string {
	switch {
	case reYear.MatchString(v):
		return "year"
	case reNumeric.MatchString(v):
		return "numeric"
	case reProper.MatchString(v):
		return "proper"
	default:
		return "text"
	}
}

func (m *formatModel) add(v string) {
	if m.counts == nil {
		m.counts = map[string]int{}
	}
	m.counts[shapeOf(v)]++
	m.total++
}

// dominant returns the majority shape if it covers >= 90% of samples.
func (m *formatModel) dominant() (string, bool) {
	if m.total < 10 {
		return "", false
	}
	for shape, n := range m.counts {
		if float64(n) >= 0.9*float64(m.total) {
			return shape, true
		}
	}
	return "", false
}

// Debugger learns constraints per attribute and checks values against
// them.
type Debugger struct {
	mu      sync.Mutex
	ranges  map[string]*rangeModel
	formats map[string]*formatModel
	fenceK  float64
}

// New returns a debugger with the default fence margin (0.45 of the
// trimmed support width).
func New() *Debugger {
	return &Debugger{
		ranges:  map[string]*rangeModel{},
		formats: map[string]*formatModel{},
		fenceK:  0.45,
	}
}

// Observe learns from a value presumed mostly-clean. (Learning tolerates
// some corruption: the IQR fence is robust to a minority of outliers.)
func (d *Debugger) Observe(attribute, value string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm := d.formats[attribute]
	if fm == nil {
		fm = &formatModel{}
		d.formats[attribute] = fm
	}
	fm.add(value)
	if f, err := strconv.ParseFloat(value, 64); err == nil {
		rm := d.ranges[attribute]
		if rm == nil {
			rm = &rangeModel{}
			d.ranges[attribute] = rm
		}
		rm.add(f)
	}
}

// Check tests a value against everything the debugger knows. A nil return
// means the value looks consistent with learned semantics.
func (d *Debugger) Check(entity, attribute, value string) []Violation {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Violation
	if rm := d.ranges[attribute]; rm != nil {
		if f, err := strconv.ParseFloat(value, 64); err == nil {
			if lo, hi, ok := rm.robustBounds(d.fenceK); ok && (f < lo || f > hi) {
				out = append(out, Violation{
					Entity: entity, Attribute: attribute, Value: value,
					Constraint: fmt.Sprintf("learned range [%.1f, %.1f]", lo, hi),
					Severity:   SevSuspect,
				})
			}
		}
	}
	if fm := d.formats[attribute]; fm != nil {
		if dom, ok := fm.dominant(); ok && shapeOf(value) != dom {
			out = append(out, Violation{
				Entity: entity, Attribute: attribute, Value: value,
				Constraint: fmt.Sprintf("learned format %q", dom),
				Severity:   SevWarn,
			})
		}
	}
	return out
}

// Sweep checks a batch of (entity, attribute, value) triples and returns
// all violations, suspect first.
func (d *Debugger) Sweep(triples [][3]string) []Violation {
	var out []Violation
	for _, tr := range triples {
		out = append(out, d.Check(tr[0], tr[1], tr[2])...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Severity == SevSuspect && out[j].Severity != SevSuspect
	})
	return out
}
