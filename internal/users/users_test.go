package users

import (
	"errors"
	"testing"
)

func TestRegisterAuthenticate(t *testing.T) {
	m := NewManager()
	if err := m.Register("alice", "secret", RoleDeveloper); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("alice", "other", RoleOrdinary); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate register: %v", err)
	}
	tok, err := m.Authenticate("alice", "secret")
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Whoami(tok)
	if err != nil || u.Name != "alice" || u.Role != RoleDeveloper {
		t.Fatalf("whoami: %+v %v", u, err)
	}
	if _, err := m.Authenticate("alice", "wrong"); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong password: %v", err)
	}
	if _, err := m.Authenticate("bob", "x"); !errors.Is(err, ErrAuth) {
		t.Fatalf("unknown user: %v", err)
	}
	m.Logout(tok)
	if _, err := m.Whoami(tok); !errors.Is(err, ErrAuth) {
		t.Fatalf("after logout: %v", err)
	}
}

func TestTokensUnique(t *testing.T) {
	m := NewManager()
	m.Register("a", "p", RoleOrdinary)
	t1, _ := m.Authenticate("a", "p")
	t2, _ := m.Authenticate("a", "p")
	if t1 == t2 {
		t.Fatal("tokens must be unique per session")
	}
}

func TestReputationWeight(t *testing.T) {
	m := NewManager()
	m.Register("u", "p", RoleOrdinary)
	if w := m.Weight("u"); w != 0.5 {
		t.Fatalf("fresh weight = %v, want 0.5", w)
	}
	if w := m.Weight("stranger"); w != 0.5 {
		t.Fatalf("unknown weight = %v", w)
	}
	for i := 0; i < 8; i++ {
		m.RecordFeedbackOutcome("u", true)
	}
	if w := m.Weight("u"); w != 0.9 { // (8+1)/(8+2)
		t.Fatalf("good weight = %v, want 0.9", w)
	}
	m2 := NewManager()
	m2.Register("v", "p", RoleOrdinary)
	for i := 0; i < 8; i++ {
		m2.RecordFeedbackOutcome("v", false)
	}
	if w := m2.Weight("v"); w != 0.1 {
		t.Fatalf("bad weight = %v, want 0.1", w)
	}
	c, wr := m2.Accuracy("v")
	if c != 0 || wr != 8 {
		t.Fatalf("accuracy: %d %d", c, wr)
	}
	// Recording for an unregistered user auto-creates state.
	m2.RecordFeedbackOutcome("ghost", true)
	if w := m2.Weight("ghost"); w <= 0.5 {
		t.Fatalf("ghost weight = %v", w)
	}
}

func TestIncentivesAndLeaderboard(t *testing.T) {
	m := NewManager()
	for _, u := range []string{"a", "b", "c"} {
		m.Register(u, "p", RoleOrdinary)
	}
	m.Award("a", 10)
	m.Award("b", 30)
	m.Award("a", 5)
	m.Award("c", 30)
	if p := m.Points("a"); p != 15 {
		t.Fatalf("points a = %d", p)
	}
	lb := m.Leaderboard(2)
	if len(lb) != 2 {
		t.Fatalf("leaderboard size %d", len(lb))
	}
	// b and c tie at 30; name tie-break puts b first.
	if lb[0].Name != "b" || lb[1].Name != "c" {
		t.Fatalf("leaderboard: %+v", lb)
	}
	full := m.Leaderboard(0)
	if len(full) != 3 || full[2].Name != "a" {
		t.Fatalf("full leaderboard: %+v", full)
	}
}

func TestConcurrentReputation(t *testing.T) {
	m := NewManager()
	m.Register("u", "p", RoleOrdinary)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				m.RecordFeedbackOutcome("u", j%2 == 0)
				m.Weight("u")
				m.Award("u", 1)
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	c, w := m.Accuracy("u")
	if c+w != 800 {
		t.Fatalf("outcomes lost: %d", c+w)
	}
	if m.Points("u") != 800 {
		t.Fatalf("points lost: %d", m.Points("u"))
	}
}
