// Sensors demonstrates the paper's Section 6 generalization: the same
// structured approach applied to a different kind of raw data. Sensor
// logs replace wiki text; the identical end-to-end machinery extracts
// readings, learns their normal range (flagging a faulty sensor), infers
// higher-level events ("someone entered the room") via alert
// subscriptions, and answers structured queries over the result. The
// readings live in a crash-safe on-disk database: the example ends by
// closing it and reopening the directory, querying the recovered data.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/uql"
)

func main() {
	corpus := sensorCorpus(11)
	dir, err := os.MkdirTemp("", "sensors-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sys, _, err := core.OpenDir(dir, core.Config{Corpus: corpus}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Register a domain extractor: "sensor door-3 reported 0.92 at tick 17."
	readingEx, err := extract.NewRegexExtractor(
		"sensor-reading", "reading",
		`sensor (?P<qualifier>[a-z]+-\d+) reported (?P<value>\d+\.\d+) at tick \d+`,
		0.95,
	)
	if err != nil {
		log.Fatal(err)
	}
	sys.Env.Extractors["sensor"] = uql.RegisteredExtractor{
		Pipeline: extract.NewPipeline(readingEx),
		Hints:    map[string]string{"reading": "sensor "},
	}

	// Event inference as a standing query: a door reading above 0.9 means
	// an entry event (the §6 "someone has entered the room").
	if _, err := sys.Subscribe(alert.Subscription{
		User: "security", Attribute: "reading", Op: alert.OpGT, Threshold: 0.9,
	}); err != nil {
		log.Fatal(err)
	}

	// Same generation path as for documents — incremental, demand-driven.
	if err := sys.PlanIncremental(context.Background(), "sensor", []string{"reading"}, 4); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.ExtractPending(context.Background(), "sensor", 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted %d readings from %d log files\n",
		sys.Stats.Counter("core.materialized.rows"), corpus.Len())
	fmt.Printf("entry events inferred (reading > 0.9): %d\n",
		sys.Stats.Counter("core.alerts.fired"))

	// Structured exploitation: busiest sensors.
	rs, err := sys.SQL(context.Background(), `SELECT qualifier, COUNT(*) AS readings, AVG(num) AS avg_reading
		FROM extracted WHERE attribute = 'reading'
		GROUP BY qualifier ORDER BY avg_reading DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-sensor summary (SQL over extracted structure):")
	fmt.Print(rs.String())

	// The semantic debugger spots the faulty sensor's 9.99 readings.
	violations, err := sys.SweepSuspicious(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	faulty := map[string]bool{}
	for _, v := range violations {
		faulty[v.Value] = true
	}
	fmt.Printf("\nsemantic debugger flagged %d suspicious readings: %v\n",
		len(violations), keys(faulty))
	fmt.Println("(sensor hall-9 is broken and reports 9.99)")

	// Durability: checkpoint + close, then reopen the same directory. The
	// readings recover from disk — no re-extraction — and keep answering.
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
	sys2, rep, err := core.OpenDir(dir, core.Config{Corpus: corpus}, nil)
	if err != nil {
		log.Fatal(err)
	}
	rs2, err := sys2.SQL(context.Background(), `SELECT COUNT(*) AS readings FROM extracted WHERE attribute = 'reading'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter close + reopen from %s (reopened=%v, reading coverage %.0f%%):\n",
		dir, rep.Reopened, 100*sys2.Coverage("reading"))
	fmt.Printf("readings recovered from disk: %s\n", rs2.Rows[0][0].String())
	if err := sys2.Close(); err != nil {
		log.Fatal(err)
	}
}

// sensorCorpus builds daily sensor-log "documents": mostly readings in
// [0, 1], with door sensors spiking above 0.9 on entries, and one faulty
// sensor stuck at 9.99.
func sensorCorpus(seed int64) *doc.Corpus {
	rng := rand.New(rand.NewSource(seed))
	sensors := []string{"door-1", "door-2", "door-3", "window-4", "hall-7"}
	corpus := doc.NewCorpus()
	tick := 0
	for day := 0; day < 6; day++ {
		var b strings.Builder
		fmt.Fprintf(&b, "Sensor log day %d\n\n", day)
		for i := 0; i < 60; i++ {
			tick++
			s := sensors[rng.Intn(len(sensors))]
			reading := rng.Float64() * 0.6
			if strings.HasPrefix(s, "door") && rng.Intn(6) == 0 {
				reading = 0.9 + rng.Float64()*0.1 // an entry
			}
			fmt.Fprintf(&b, "sensor %s reported %.2f at tick %d.\n", s, reading, tick)
		}
		if day >= 4 { // the faulty sensor appears late in the trace
			for i := 0; i < 3; i++ {
				tick++
				fmt.Fprintf(&b, "sensor hall-9 reported 9.99 at tick %d.\n", tick)
			}
		}
		corpus.Add(doc.Document{
			Title: fmt.Sprintf("sensor-log-day-%d", day),
			Text:  b.String(),
			Meta:  map[string]string{"kind": "sensorlog"},
		})
	}
	return corpus
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
