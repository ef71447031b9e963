// Package schema is the processing layer's schema manager (Figure 1,
// Part IV). Because the paper's DGE model generates structure
// incrementally and best-effort, the schema of the derived structure
// evolves: attributes appear when first extracted, get renamed when
// integration discovers matches, and are dropped. This package versions
// those schemas and migrates extracted records across versions.
package schema

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// FieldType is the inferred type of an attribute.
type FieldType string

const (
	TypeString FieldType = "string"
	TypeInt    FieldType = "int"
	TypeFloat  FieldType = "float"
)

// Attribute is one evolving attribute.
type Attribute struct {
	Name string
	Type FieldType
	// AddedIn is the schema version that introduced the attribute.
	AddedIn int
}

// Version is an immutable schema snapshot.
type Version struct {
	Num        int
	Attributes []Attribute
	// Change describes the evolution step that produced this version.
	Change string
}

// Evolver manages an evolving schema with full version history. Safe for
// concurrent use.
type Evolver struct {
	mu       sync.RWMutex
	name     string
	versions []Version
	renames  map[string]string // old name -> new name (transitively applied)
}

// NewEvolver starts a schema with version 1 and no attributes.
func NewEvolver(name string) *Evolver {
	return &Evolver{
		name:     name,
		versions: []Version{{Num: 1, Change: "initial"}},
		renames:  map[string]string{},
	}
}

// Name returns the schema name.
func (e *Evolver) Name() string { return e.name }

// Current returns the latest version.
func (e *Evolver) Current() Version {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.versions[len(e.versions)-1]
}

// History returns all versions oldest-first.
func (e *Evolver) History() []Version {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]Version(nil), e.versions...)
}

func (e *Evolver) pushLocked(attrs []Attribute, change string) Version {
	v := Version{Num: len(e.versions) + 1, Attributes: attrs, Change: change}
	e.versions = append(e.versions, v)
	return v
}

func cloneAttrs(attrs []Attribute) []Attribute {
	return append([]Attribute(nil), attrs...)
}

// AddAttribute introduces a new attribute (incremental best-effort
// extraction discovers attributes over time).
func (e *Evolver) AddAttribute(name string, t FieldType) (Version, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.versions[len(e.versions)-1]
	for _, a := range cur.Attributes {
		if a.Name == name {
			return Version{}, fmt.Errorf("schema: attribute %s already exists", name)
		}
	}
	attrs := cloneAttrs(cur.Attributes)
	attrs = append(attrs, Attribute{Name: name, Type: t, AddedIn: cur.Num + 1})
	return e.pushLocked(attrs, fmt.Sprintf("add %s:%s", name, t)), nil
}

// RenameAttribute renames an attribute (integration discovered that two
// names mean the same thing and picked a canonical one).
func (e *Evolver) RenameAttribute(oldName, newName string) (Version, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.versions[len(e.versions)-1]
	idx := -1
	for i, a := range cur.Attributes {
		if a.Name == oldName {
			idx = i
		}
		if a.Name == newName {
			return Version{}, fmt.Errorf("schema: attribute %s already exists", newName)
		}
	}
	if idx < 0 {
		return Version{}, fmt.Errorf("schema: no attribute %s", oldName)
	}
	attrs := cloneAttrs(cur.Attributes)
	attrs[idx].Name = newName
	e.renames[oldName] = newName
	return e.pushLocked(attrs, fmt.Sprintf("rename %s -> %s", oldName, newName)), nil
}

// DropAttribute removes an attribute.
func (e *Evolver) DropAttribute(name string) (Version, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.versions[len(e.versions)-1]
	attrs := make([]Attribute, 0, len(cur.Attributes))
	found := false
	for _, a := range cur.Attributes {
		if a.Name == name {
			found = true
			continue
		}
		attrs = append(attrs, a)
	}
	if !found {
		return Version{}, fmt.Errorf("schema: no attribute %s", name)
	}
	return e.pushLocked(attrs, fmt.Sprintf("drop %s", name)), nil
}

// Canonical maps an attribute name through all recorded renames.
func (e *Evolver) Canonical(name string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	seen := map[string]bool{}
	for {
		next, ok := e.renames[name]
		if !ok || seen[name] {
			return name
		}
		seen[name] = true
		name = next
	}
}

// Record is a loosely-typed extracted record keyed by attribute name.
type Record map[string]string

// Migrate rewrites a record written under an older version to the current
// schema: renamed attributes move to their canonical names, dropped
// attributes are discarded, and values are checked against current types
// (failures keep the value but report it).
func (e *Evolver) Migrate(r Record) (Record, []error) {
	cur := e.Current()
	byName := map[string]FieldType{}
	for _, a := range cur.Attributes {
		byName[a.Name] = a.Type
	}
	out := Record{}
	var errs []error
	// Deterministic iteration for reproducible error lists.
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := r[k]
		name := e.Canonical(k)
		t, ok := byName[name]
		if !ok {
			continue // dropped attribute
		}
		if err := checkType(v, t); err != nil {
			errs = append(errs, fmt.Errorf("schema: %s: %w", name, err))
		}
		out[name] = v
	}
	return out, errs
}

func checkType(v string, t FieldType) error {
	switch t {
	case TypeInt:
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			return fmt.Errorf("%q is not an int", v)
		}
	case TypeFloat:
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("%q is not a float", v)
		}
	}
	return nil
}

// InferType guesses the tightest type for a sample of values.
func InferType(values []string) FieldType {
	if len(values) == 0 {
		return TypeString
	}
	allInt, allFloat := true, true
	for _, v := range values {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			allInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			allFloat = false
		}
	}
	switch {
	case allInt:
		return TypeInt
	case allFloat:
		return TypeFloat
	default:
		return TypeString
	}
}
