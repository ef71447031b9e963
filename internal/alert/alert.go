// Package alert implements the user layer's alerting/monitoring
// exploitation mode: users register standing queries over the extracted
// structure ("tell me when a city's population exceeds one million"), and
// each refresh of the structure is checked against the subscriptions.
package alert

import (
	"fmt"
	"strconv"
	"sync"
)

// Row mirrors the extracted EAV structure.
type Row struct {
	Entity    string
	Attribute string
	Qualifier string
	Value     string
	Conf      float64
}

// Op is a comparison operator for numeric conditions.
type Op string

const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
	OpEQ Op = "="
	OpNE Op = "!="
)

// Subscription is a standing query: attribute condition, optional entity
// restriction, optional minimum confidence.
type Subscription struct {
	ID        int
	User      string
	Entity    string // empty = any entity
	Attribute string
	Op        Op
	Threshold float64
	MinConf   float64
}

// Notification is one fired subscription instance.
type Notification struct {
	Subscription Subscription
	Row          Row
	Message      string
}

// Center manages subscriptions and evaluates them against refreshes. Safe
// for concurrent use. Duplicate suppression: a (subscription, entity,
// qualifier, value) combination notifies once.
type Center struct {
	mu      sync.Mutex
	nextID  int
	subs    map[int]Subscription
	fired   map[string]bool
	history []Notification
}

// NewCenter returns an empty alert center.
func NewCenter() *Center {
	return &Center{subs: map[int]Subscription{}, fired: map[string]bool{}}
}

// Subscribe registers a standing query and returns its id.
func (c *Center) Subscribe(s Subscription) (int, error) {
	if s.Attribute == "" {
		return 0, fmt.Errorf("alert: subscription needs an attribute")
	}
	switch s.Op {
	case OpGT, OpGE, OpLT, OpLE, OpEQ, OpNE:
	default:
		return 0, fmt.Errorf("alert: bad operator %q", s.Op)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	s.ID = c.nextID
	c.subs[s.ID] = s
	return s.ID, nil
}

// Unsubscribe removes a subscription.
func (c *Center) Unsubscribe(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.subs[id]; !ok {
		return false
	}
	delete(c.subs, id)
	return true
}

// Subscriptions returns the active subscription count.
func (c *Center) Subscriptions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// Evaluate checks rows (a refresh of the extracted structure) against all
// subscriptions and returns newly fired notifications. With no
// subscription it returns at once, without parsing a row: every ingest
// calls it.
func (c *Center) Evaluate(rows []Row) []Notification {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.subs) == 0 {
		return nil
	}
	var out []Notification
	for _, r := range rows {
		v, err := strconv.ParseFloat(r.Value, 64)
		if err != nil {
			continue
		}
		for _, s := range c.subs {
			if s.Attribute != r.Attribute {
				continue
			}
			if s.Entity != "" && s.Entity != r.Entity {
				continue
			}
			if r.Conf < s.MinConf {
				continue
			}
			if !compare(v, s.Op, s.Threshold) {
				continue
			}
			key := fmt.Sprintf("%d|%s|%s|%s", s.ID, r.Entity, r.Qualifier, r.Value)
			if c.fired[key] {
				continue
			}
			c.fired[key] = true
			out = append(out, Notification{
				Subscription: s,
				Row:          r,
				Message: fmt.Sprintf("alert for %s: %s.%s = %s (%s %g)",
					s.User, r.Entity, r.Attribute, r.Value, s.Op, s.Threshold),
			})
		}
	}
	c.history = append(c.history, out...)
	return out
}

// History returns every notification ever fired, in firing order. It is
// the delivery ledger concurrency tests audit: under racing refreshes,
// each (subscription, row identity, value) must appear exactly once.
func (c *Center) History() []Notification {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Notification(nil), c.history...)
}

func compare(v float64, op Op, threshold float64) bool {
	switch op {
	case OpGT:
		return v > threshold
	case OpGE:
		return v >= threshold
	case OpLT:
		return v < threshold
	case OpLE:
		return v <= threshold
	case OpEQ:
		return v == threshold
	case OpNE:
		return v != threshold
	}
	return false
}
