package debugger

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestPaperExample135Degrees(t *testing.T) {
	// The paper: "if this module has learned that the monthly temperature
	// of a city cannot exceed 130 degrees, then it can flag an extracted
	// temperature of 135 as suspicious."
	d := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		d.Observe("temperature", fmt.Sprintf("%.1f", 10+rng.Float64()*85)) // 10..95 °F
	}
	v := d.Check("Springfield, Illinois", "temperature", "135")
	if len(v) == 0 {
		t.Fatal("135 should be flagged")
	}
	if v[0].Severity != SevSuspect {
		t.Fatalf("severity: %v", v[0])
	}
	if !strings.Contains(v[0].String(), "temperature") {
		t.Fatalf("rendering: %v", v[0])
	}
	// A normal value passes.
	if v := d.Check("Madison, Wisconsin", "temperature", "62.0"); len(v) != 0 {
		t.Fatalf("62 flagged: %v", v)
	}
}

func TestLearnedRangeRobustToCorruption(t *testing.T) {
	// 5% corrupted observations must not destroy the learned fence.
	d := New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		d.Observe("temp", fmt.Sprintf("%.1f", 20+rng.Float64()*60))
	}
	for i := 0; i < 20; i++ {
		d.Observe("temp", fmt.Sprintf("%.1f", 140+rng.Float64()*40))
	}
	lo, hi, ok := d.ranges["temp"].robustBounds(d.fenceK)
	if !ok {
		t.Fatal("no learned range")
	}
	if hi > 139 {
		t.Fatalf("fence [%f, %f] swallowed the corruption", lo, hi)
	}
	if len(d.Check("e", "temp", "150")) == 0 {
		t.Fatal("150 should still be flagged despite dirty training data")
	}
}

func TestTooFewSamplesNoRange(t *testing.T) {
	d := New()
	for i := 0; i < 5; i++ {
		d.Observe("a", "10")
	}
	if rm := d.ranges["a"]; rm != nil {
		if _, _, ok := rm.robustBounds(d.fenceK); ok {
			t.Fatal("range learned from 5 samples")
		}
	}
	if v := d.Check("e", "a", "99999"); len(v) != 0 {
		t.Fatalf("flagged without enough data: %v", v)
	}
}

func TestFormatLearning(t *testing.T) {
	d := New()
	for i := 0; i < 50; i++ {
		d.Observe("founded", fmt.Sprintf("%d", 1800+i*3))
	}
	v := d.Check("e", "founded", "next year")
	found := false
	for _, viol := range v {
		if strings.Contains(viol.Constraint, "format") {
			found = true
		}
	}
	if !found {
		t.Fatalf("format violation missing: %v", v)
	}
	if v := d.Check("e", "founded", "1920"); len(v) != 0 {
		t.Fatalf("valid year flagged: %v", v)
	}
}

func TestShapeOf(t *testing.T) {
	cases := map[string]string{
		"1856":        "year",
		"233209":      "numeric",
		"62.5":        "numeric",
		"-10":         "numeric",
		"Madison":     "proper",
		"New Haven":   "proper",
		"some text 7": "text",
	}
	for in, want := range cases {
		if got := shapeOf(in); got != want {
			t.Errorf("shapeOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSweepOrdersSuspectFirst(t *testing.T) {
	d := New()
	for i := 0; i < 50; i++ {
		d.Observe("pop", fmt.Sprintf("%d", 10000+i*1000))
		d.Observe("name", "Madison")
	}
	out := d.Sweep([][3]string{
		{"a", "name", "lowercase weird 123"}, // format warn
		{"b", "pop", "999999999"},            // range suspect
	})
	if len(out) < 2 {
		t.Fatalf("sweep found %d", len(out))
	}
	if out[0].Severity != SevSuspect {
		t.Fatalf("suspect should sort first: %v", out)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if q := quantile(vals, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(vals, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile(vals, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}
