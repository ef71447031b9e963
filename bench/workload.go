package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/server"
	"repro/internal/synth"
)

// opClass is one statement shape. Every class has exactly one shape, so
// a per-class median never straddles two modes.
type opClass uint8

const (
	opAsk opClass = iota
	opSearch
	opSQLPoint
	opSQLAgg
	opSQLTopK
	opBrowse
	opExplain
	opCorrect
	numOps
)

var opNames = [numOps]string{"ask", "search", "sql_point", "sql_agg", "sql_topk", "browse", "explain", "correct"}

func (c opClass) String() string { return opNames[c] }

// workload is one served traffic mix over one dataspace shape. The
// names are final: later issues cite them.
type workload struct {
	name   string
	why    string
	cities int  // corpus size at scale 1
	shards int  // 1 = single engine (daemon's Generate program); >1 = shard.Open + BulkIngest
	zipf   bool // entity ~ Zipf(1.1) over a seeded rank permutation; false = uniform
	mix    [numOps]int
	// tracedOps is the length of the traced run: a count, not a
	// duration, so the traced run's counters repeat exactly.
	tracedOps int
}

var workloads = []workload{
	{
		name: "guided_hot", cities: 400, shards: 1, zipf: true, tracedOps: 2000,
		mix: [numOps]int{opAsk: 50, opSearch: 25, opSQLPoint: 15, opExplain: 10},
		why: "cache-resident dataspace (135 pages in a 512-frame pool): wire, handler, core and reformulator do the work; buffer pool and WAL are idle",
	},
	{
		name: "scan_cold", cities: 4000, shards: 1, zipf: false, tracedOps: 600,
		mix: [numOps]int{opSQLPoint: 70, opAsk: 15, opSQLAgg: 6, opSQLTopK: 6, opBrowse: 3},
		why: "table 2.6x the buffer pool, uniform keys: rdbms executor and buffer-pool eviction dominate; set-up prices row-at-a-time ingest",
	},
	{
		name: "feedback_mixed", cities: 400, shards: 1, zipf: true, tracedOps: 2000,
		mix: [numOps]int{opAsk: 40, opSQLPoint: 30, opCorrect: 30},
		why: "guided_hot's data with 30% durable corrections: WAL fsync, group commit, lock manager and MVCC chains work beside the reads",
	},
	{
		name: "sharded_mixed", cities: 4000, shards: 2, zipf: false, tracedOps: 600,
		mix: [numOps]int{opSQLPoint: 70, opAsk: 15, opSQLAgg: 6, opSQLTopK: 6, opBrowse: 3},
		why: "scan_cold's exact op stream over 2 shards: isolates routing, fan-out, k-way merge and per-shard re-parse; set-up prices bulk ingest",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) has(c opClass) bool { return w.mix[c] > 0 }

// scaledCities applies the data-size scale (the smoke test runs at 1/10).
func (w *workload) scaledCities(scale float64) int {
	n := int(math.Round(float64(w.cities) * scale))
	if n < 20 {
		n = 20
	}
	return n
}

// op is one generated request, before it is bound to a corpus.
type op struct {
	class opClass
	city  int // index into Truth.Cities
	month int
	value float64 // correct only: the new temperature
}

// blockOps is the length of one block of a client's stream. Every block
// holds each class exactly mix[class] times, in a seeded order, so the
// realised mix equals the table over any whole number of blocks and a
// block's duration measures throughput free of mix sampling noise.
const blockOps = 100

// generator yields one client's op stream: a pure function of the seed,
// the client index and the workload's (mix, key distribution, city
// count). scan_cold and sharded_mixed share all of those, so the same
// seed gives them identical requests.
type generator struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int // popularity rank -> city index, shared by all clients of a seed
	client  int
	clients int
	block   []opClass // the current block's classes, shuffled
	pos     int
	// ryw is a key this client just corrected; the next ask or
	// sql_point reads it back (the read-your-write sample).
	ryw      int
	corrects int
}

func mixSeed(seed int64, lane int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(lane+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & math.MaxInt64)
}

func newGenerator(w *workload, seed int64, client, clients, cities int) *generator {
	g := &generator{
		w: w, client: client, clients: clients, ryw: -1,
		rng:  rand.New(rand.NewSource(mixSeed(seed, client))),
		perm: rand.New(rand.NewSource(mixSeed(seed, -1))).Perm(cities),
	}
	if w.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(cities-1))
	}
	return g
}

func (g *generator) rank() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(len(g.perm))
}

func (g *generator) next() op {
	if g.pos == len(g.block) {
		g.block, g.pos = g.block[:0], 0
		for c, share := range g.w.mix {
			for i := 0; i < share; i++ {
				g.block = append(g.block, opClass(c))
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[g.pos]
	g.pos++
	o := op{class: class, month: g.rng.Intn(12)}
	rank := g.rank()
	switch class {
	case opCorrect:
		// Each key has one corrector (rank mod clients == client), so
		// "the last acknowledged correction" is well defined while the
		// correctors still collide on the table lock.
		rank = rank - rank%g.clients + g.client
		if rank >= len(g.perm) {
			rank -= g.clients
		}
		o.city = g.perm[rank]
		o.value = float64(g.rng.Intn(1000)) / 10
		if g.corrects%16 == 0 {
			g.ryw = o.city*12 + o.month
		}
		g.corrects++
	case opAsk, opSQLPoint:
		o.city = g.perm[rank]
		if g.ryw >= 0 {
			o.city, o.month = g.ryw/12, g.ryw%12
			g.ryw = -1
		}
	default:
		o.city = g.perm[rank]
	}
	return o
}

const topKStatement = "SELECT entity, value FROM extracted WHERE attribute = 'population' ORDER BY value DESC LIMIT 10"

func formatTemp(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// request binds an op to the corpus. The program under test receives
// only these requests.
func (o op) request(truth *synth.Truth, client int) *server.Request {
	c := &truth.Cities[o.city]
	month := synth.Months[o.month]
	switch o.class {
	case opAsk:
		return &server.Request{Op: server.OpAsk, K: 3,
			Query: fmt.Sprintf("average %s temperature %s %s", month, c.Name, c.State)}
	case opSearch:
		return &server.Request{Op: server.OpSearch, K: 5,
			Query: fmt.Sprintf("%s %s temperature", c.Name, month)}
	case opSQLPoint:
		return &server.Request{Op: server.OpSQL,
			SQL: "SELECT attribute, qualifier, value FROM extracted WHERE entity = '" + c.Title + "'"}
	case opSQLAgg:
		return &server.Request{Op: server.OpSQL,
			SQL: "SELECT COUNT(*) FROM extracted WHERE attribute = 'temperature' AND qualifier = '" + month + "'"}
	case opSQLTopK:
		return &server.Request{Op: server.OpSQL, SQL: topKStatement}
	case opBrowse:
		return &server.Request{Op: server.OpBrowse, Refine: []string{"attribute=population"}}
	case opExplain:
		return &server.Request{Op: server.OpExplain, Entity: c.Title, Attribute: "temperature", Qualifier: month}
	default:
		return &server.Request{Op: server.OpCorrect, User: "u" + strconv.Itoa(client),
			Entity: c.Title, Attribute: "temperature", Qualifier: month, Value: formatTemp(o.value)}
	}
}
