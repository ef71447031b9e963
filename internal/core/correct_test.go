package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// A correction locks IX on the table and X on its one row, so concurrent
// corrections never deadlock one another, and Commit returns only once a
// snapshot begun afterwards sees the write.

type factKey struct{ entity, qualifier string }

// temperatureFacts returns per entity, in table order, the qualifiers of
// its extracted temperature rows.
func temperatureFacts(t *testing.T, s *System) (entities []string, quals map[string][]string) {
	t.Helper()
	rs, err := s.SQL(context.Background(), "SELECT entity, qualifier FROM extracted WHERE attribute = 'temperature'")
	if err != nil {
		t.Fatal(err)
	}
	quals = map[string][]string{}
	for _, r := range rs.Rows {
		if quals[r[0].S] == nil {
			entities = append(entities, r[0].S)
		}
		quals[r[0].S] = append(quals[r[0].S], r[1].S)
	}
	return entities, quals
}

// readFact reads one temperature value through a View opened now.
func readFact(s *System, k factKey) (string, error) {
	v, err := s.View(context.Background())
	if err != nil {
		return "", err
	}
	defer v.Close()
	q := func(x string) string { return "'" + strings.ReplaceAll(x, "'", "''") + "'" }
	rs, err := viewSQL(v, fmt.Sprintf("SELECT value FROM extracted WHERE entity = %s AND attribute = 'temperature' AND qualifier = %s",
		q(k.entity), q(k.qualifier)))
	if err != nil {
		return "", err
	}
	if len(rs.Rows) != 1 {
		return "", fmt.Errorf("%v: %d rows, want 1", k, len(rs.Rows))
	}
	return rs.Rows[0][0].S, nil
}

// TestConcurrentCorrectionsDistinctKeys: four correctors on distinct
// facts, two pairs sharing an entity (and so an entity-index key). None is
// a deadlock victim, every CorrectValue succeeds, and a View opened after
// each return reads the value just written.
func TestConcurrentCorrectionsDistinctKeys(t *testing.T) {
	s := newCloseTestSystem(t)
	defer s.Close()
	entities, quals := temperatureFacts(t, s)
	if len(entities) < 2 || len(quals[entities[0]]) < 2 || len(quals[entities[1]]) < 2 {
		t.Fatalf("need two entities with two temperature rows each, have %v", quals)
	}
	keys := []factKey{
		{entities[0], quals[entities[0]][0]}, {entities[0], quals[entities[0]][1]},
		{entities[1], quals[entities[1]][0]}, {entities[1], quals[entities[1]][1]},
	}
	deadlocks := s.DB.LockManager().Deadlocks()

	const rounds = 40
	var wg sync.WaitGroup
	for w, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := fmt.Sprintf("%d.5", 100*w+i)
				if err := s.CorrectValue(context.Background(), "fixer", k.entity, "temperature", k.qualifier, want); err != nil {
					t.Errorf("correct %v: %v", k, err)
					return
				}
				got, err := readFact(s, k)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("%v: View after CorrectValue returned reads %q, want %q", k, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.DB.LockManager().Deadlocks(); n != deadlocks {
		t.Fatalf("corrections of distinct rows hit %d deadlocks", n-deadlocks)
	}
}

// TestConcurrentCorrectionsSameKey: two correctors race on one fact. Both
// succeed every time; each reads back either its own newest value or a
// value the other wrote later, never an older one; and the fact ends at
// the last value one of them committed.
func TestConcurrentCorrectionsSameKey(t *testing.T) {
	s := newCloseTestSystem(t)
	defer s.Close()
	entities, quals := temperatureFacts(t, s)
	if len(entities) == 0 {
		t.Fatal("no extracted temperature rows")
	}
	k := factKey{entities[0], quals[entities[0]][0]}

	const rounds = 40
	value := func(w, i int) string { return fmt.Sprintf("%d", 1000*(w+1)+i) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := value(w, i)
				if err := s.CorrectValue(context.Background(), "fixer", k.entity, "temperature", k.qualifier, want); err != nil {
					t.Errorf("corrector %d: %v", w, err)
					return
				}
				got, err := readFact(s, k)
				if err != nil {
					t.Error(err)
					return
				}
				var gw, gi int
				if _, err := fmt.Sscanf(got, "%1d%03d", &gw, &gi); err != nil || (gw-1 == w && gi < i) {
					t.Errorf("corrector %d wrote %s, then a View read %s", w, want, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := readFact(s, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != value(0, rounds-1) && got != value(1, rounds-1) {
		t.Fatalf("final value %s is neither corrector's last write (%s, %s)", got, value(0, rounds-1), value(1, rounds-1))
	}
}

// TestCorrectionsKeepWALShort: committed corrections start background
// checkpoints once the log spans checkpointSegments segments, so 40,000
// corrections (about nine 1 MiB segments of log, all of which stay live
// without them) never leave more than five live segments for Close or a
// restart to walk. The bound is checked after every correction on the
// segment counter; no clock is involved.
func TestCorrectionsKeepWALShort(t *testing.T) {
	s := newCloseTestSystem(t)
	defer s.Close()
	entities, quals := temperatureFacts(t, s)
	ctx := context.Background()
	most := 0
	for i := 0; i < 40000; i++ {
		e := entities[i%len(entities)]
		q := quals[e][i/len(entities)%len(quals[e])]
		if err := s.CorrectValue(ctx, "u", e, "temperature", q, fmt.Sprint(i%100)); err != nil {
			t.Fatal(err)
		}
		if n := s.DB.WALSegments(); n > most {
			most = n
		}
	}
	ran := s.Stats.Counter("core.background_checkpoints")
	t.Logf("at most %d live WAL segments; %d background checkpoints", most, ran)
	if most > checkpointSegments+1 {
		t.Fatalf("%d live WAL segments, want at most %d", most, checkpointSegments+1)
	}
	if ran == 0 {
		t.Fatal("no background checkpoint ran")
	}
}
