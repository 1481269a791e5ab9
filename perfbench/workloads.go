package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"tagdm"
)

// Every workload runs with the result cache off and the same latency
// limits.
const (
	// cacheOff is the server.Config.CacheSize that turns the result cache
	// off.
	cacheOff = -1
	// analyzeLimit is the latency within which an analysis counts towards
	// goodput.
	analyzeLimit = 5 * time.Second
	// ingestLimit is how late an open-loop ingest may be sent before the
	// generator gives it up.
	ingestLimit = time.Second
)

// workload is one traffic mix against one in-process server. Why each
// workload exists is stated in BENCHMARK.json.
type workload struct {
	name string
	// durable runs the server with a write-ahead log fsynced on every
	// acknowledged batch, in a data directory local to the run.
	durable bool
	// setups is how many times a run sets the server up; setup_s is the
	// median.
	setups int

	// clients is the number of closed-loop analysts; ingestRate is the
	// open-loop ingest stream beside them, in requests per second.
	clients    int
	ingestRate float64
	// publish is false when ingests must not publish a snapshot
	// ("refresh": false), which keeps the analyzed epoch fixed.
	publish bool

	// queries is the mix; analysts run seeded rounds in which every query
	// appears once.
	queries []querySpec
}

// querySpec is one distinct ANALYZE statement of a workload's mix.
type querySpec struct {
	problem, k int
	support    string
	where      [][2]string
}

func (q querySpec) scoped() bool { return len(q.where) > 0 }

// plainValue matches WHERE values the query lexer accepts unquoted.
var plainValue = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_.-]*$`)

// text renders the statement. Values the lexer would reject unquoted (those
// starting with a digit, like age='25-34', or holding spaces) are quoted.
func (q querySpec) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ANALYZE PROBLEM %d", q.problem)
	for i, kv := range q.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		v := kv[1]
		if !plainValue.MatchString(v) {
			v = "'" + v + "'"
		}
		fmt.Fprintf(&b, "%s=%s", kv[0], v)
	}
	fmt.Fprintf(&b, " WITH k=%d, support=%s", q.k, q.support)
	return b.String()
}

// scope is the WHERE clause as the filter map the library takes.
func (q querySpec) scope() map[string]string {
	if len(q.where) == 0 {
		return nil
	}
	m := make(map[string]string, len(q.where))
	for _, kv := range q.where {
		m[kv[0]] = kv[1]
	}
	return m
}

func scopeKey(where [][2]string) string {
	parts := make([]string, len(where))
	for i, kv := range where {
		parts[i] = kv[0] + "=" + kv[1]
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Narrow and medium scopes of the paper corpus (1 to 12% of the actions).
// Broad ones such as gender=male take seconds per DV-FDP solve and are
// left out, as are unscoped DV-FDP solves, whose cold 12,000-wide tag
// diversity matrix takes about half a minute to build.
var paperScopes = [][][2]string{
	{{"state", "CA"}},
	{{"occupation", "student"}},
	{{"age", "25-34"}},
	{{"genre", "drama"}},
	{{"gender", "female"}, {"age", "18-24"}},
	{{"state", "NY"}, {"gender", "female"}},
}

func scopedQueries(scopes [][][2]string, ks ...int) []querySpec {
	var out []querySpec
	for _, sc := range scopes {
		for _, k := range ks {
			for p := 1; p <= 6; p++ {
				out = append(out, querySpec{problem: p, k: k, support: "1%", where: sc})
			}
		}
	}
	return out
}

// paperMix is unscoped SM-LSH at k=3 for the given problems (1-3) plus
// problems 1-6 under the narrow and medium paper scopes.
func paperMix(unscoped ...int) []querySpec {
	var out []querySpec
	for _, p := range unscoped {
		out = append(out, querySpec{problem: p, k: 3, support: "1%"})
	}
	return append(out, scopedQueries(paperScopes, 2, 3)...)
}

var workloads = []*workload{
	{
		name:    "paper-analyze",
		setups:  3,
		clients: 2, ingestRate: 30, publish: false,
		queries: paperMix(1, 2, 3),
	},
	{
		// The unscoped statement is answered by the newest snapshot's own
		// engine, so it pays the per-epoch LSH rebuild and the carried
		// pair matrices; scoped statements build a throwaway engine.
		name:    "paper-ingest",
		durable: true, setups: 3,
		clients: 1, ingestRate: 10, publish: true,
		queries: paperMix(1),
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// generateCorpus builds the paper-scale corpus (33,322 actions, 12,000
// tags). Generation is deterministic, so every call returns an identical,
// independently owned copy.
func generateCorpus() (*tagdm.Dataset, error) {
	return tagdm.GenerateDataset(tagdm.DefaultGenerateConfig())
}

// warmupQueries is one statement per distinct unscoped problem: the first
// solve of each builds the snapshot's lazy state (LSH hash vectors and
// index, pair matrices the gate decides to materialize). Scoped statements
// build a fresh scoped engine on every request and need no warm-up.
func (w *workload) warmupQueries() []int {
	seen := map[int]bool{}
	var out []int
	for i, q := range w.queries {
		if !q.scoped() && !seen[q.problem] {
			seen[q.problem] = true
			out = append(out, i)
		}
	}
	return out
}

// scopes lists the distinct WHERE clauses of the mix.
func (w *workload) scopes() [][][2]string {
	seen := map[string]bool{}
	var out [][][2]string
	for _, q := range w.queries {
		if k := scopeKey(q.where); q.scoped() && !seen[k] {
			seen[k] = true
			out = append(out, q.where)
		}
	}
	return out
}
