package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/incremental"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/obs"
	"tagdm/internal/query"
	"tagdm/internal/server"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// reconcileTolerance is how far, as a share of the client-observed median
// analyze latency, the median of the summed layer self times may sit from
// it before the record flags the trace as not accounting for the latency.
const reconcileTolerance = 0.10

// scrape is the server's own counters at one instant.
type scrape struct {
	stats *server.StatsResponse
	prom  *obs.PromText
}

func (h *harness) scrape() (*scrape, error) {
	st, err := h.stats()
	if err != nil {
		return nil, err
	}
	prom, err := h.metrics()
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return &scrape{st, prom}, nil
}

// solverStages maps the solver stage spans to their per-layer metrics.
var solverStages = map[string]string{
	core.StageBucketScan:  "core.smlsh.bucket_scan_ms",
	core.StageLSHBuild:    "core.smlsh.lsh_build_ms",
	core.StageGreedy:      "core.dvfdp.greedy_ms",
	core.StageLocalSearch: "core.dvfdp.local_search_ms",
	core.StageMatrix:      "core.matrix_ms",
}

// selfSum is the sum over the tree of each span's self time: its wall time
// minus the part its children cover.
func selfSum(t *obs.SpanTree) float64 {
	var kids float64
	total := 0.0
	for _, c := range t.Children {
		kids += c.WallMs
		total += selfSum(c)
	}
	return total + max(0, t.WallMs-kids)
}

// stageSums adds up the wall time of every span named in solverStages.
func stageSums(t *obs.SpanTree, into map[string]float64) {
	if _, ok := solverStages[t.Name]; ok {
		into[t.Name] += t.WallMs
	}
	for _, c := range t.Children {
		stageSums(c, into)
	}
}

// spanSummary is what the layer metrics need from one analysis's span
// tree, kept instead of the tree itself.
type spanSummary struct {
	rootMs, solveMs, selfSumMs float64
	// shardGaps is each shard span's time outside its children.
	shardGaps []float64
	stages    map[string]float64
}

func summarize(t *obs.SpanTree) *spanSummary {
	sum := &spanSummary{rootMs: t.WallMs, selfSumMs: selfSum(t), stages: map[string]float64{}}
	if solve := t.Find("solve"); solve != nil {
		sum.solveMs = solve.WallMs
		for _, sh := range solve.Children {
			if sh.Name != "shard" {
				continue
			}
			var kids float64
			for _, c := range sh.Children {
				kids += c.WallMs
			}
			sum.shardGaps = append(sum.shardGaps, max(0, sh.WallMs-kids))
		}
	}
	stageSums(t, sum.stages)
	return sum
}

// layerMetrics derives the per-layer metrics of a traced window from the
// span tree of every traced analysis, the benchmark's own spans around
// each request, and the server's counters scraped around the window.
//
// Each traced analysis forms one tree: the benchmark's client span (from
// the send until the answer is decoded), its ServeHTTP span, and under
// that the server's own tree. The summed self times of that tree are
// reconciled against the client-observed latency.
func layerMetrics(m map[string]metric, out *outcome, before, after *scrape, rec map[string]any) {
	var self, gaps, client, layered, observed []float64
	plain, withTrace := map[int][]float64{}, map[int][]float64{}
	stages := map[string]float64{}
	for _, s := range out.analyses {
		lat, wall := ms(float64(s.lat)), ms(float64(s.wall))
		if !s.traced {
			plain[s.q] = append(plain[s.q], lat)
			continue
		}
		withTrace[s.q] = append(withTrace[s.q], lat)
		if s.span == nil {
			continue
		}
		gaps = append(gaps, s.span.shardGaps...)
		self = append(self, wall-s.span.solveMs)
		client = append(client, max(0, lat-wall))
		layered = append(layered, max(0, lat-wall)+max(0, wall-s.span.rootMs)+s.span.selfSumMs)
		observed = append(observed, lat)
		for name, v := range s.span.stages {
			stages[name] += v
		}
	}
	m["loadgen.self_ms"] = metric{median(client), "ms"}
	m["server.self_ms"] = metric{median(self), "ms"}
	m["server.shard_gap_ms"] = metric{median(gaps), "ms"}
	// Solver stages report busy time per traced analysis, so they add up
	// to the time the solvers hold a CPU per answer.
	for name, key := range solverStages {
		m[key] = metric{ratio(stages[name], float64(len(observed))), "ms"}
	}

	b, a := before.stats, after.stats
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	m["server.cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["server.rejected"] = metric{float64(a.Solve.Rejected - b.Solve.Rejected), "count"}
	m["server.timeouts"] = metric{float64(a.Solve.Timeouts - b.Solve.Timeouts), "count"}
	m["core.candidates_examined"] = metric{ratio(float64(a.Solve.CandidatesExamined-b.Solve.CandidatesExamined), float64(a.Solve.Count-b.Solve.Count)), "count"}
	var mhits, mall int64
	for fam, fa := range a.Solve.Families {
		fb := b.Solve.Families[fam]
		mhits += fa.MatrixHits - fb.MatrixHits
		mall += fa.MatrixBuilds - fb.MatrixBuilds + fa.MatrixRebuilds - fb.MatrixRebuilds +
			fa.MatrixHits - fb.MatrixHits + fa.MatrixLazy - fb.MatrixLazy
	}
	m["core.matrix_hit_ratio"] = metric{ratio(float64(mhits), float64(mall)), "ratio"}
	m["core.matrix_mb"] = metric{float64(a.Matrix.Bytes) / 1e6, "MB"}

	waitSum := promDelta(before.prom, after.prom, "tagdm_wal_append_wait_seconds_sum")
	waitN := promDelta(before.prom, after.prom, "tagdm_wal_append_wait_seconds_count")
	m["wal.append_wait_ms"] = metric{ratio(waitSum*1e3, waitN), "ms"}
	m["wal.fsyncs_per_append"] = metric{ratio(float64(a.Durability.WALFsyncs-b.Durability.WALFsyncs),
		float64(a.Durability.WALAppends-b.Durability.WALAppends)), "ratio"}

	// Statements differ in cost by four orders of magnitude, so tracing is
	// compared statement by statement: the overhead is the median over
	// statements of traced over untraced median latency.
	var paired []float64
	for q, t := range withTrace {
		if p := median(plain[q]); p > 0 {
			paired = append(paired, median(t)/p)
		}
	}
	overhead := 0.0
	if len(paired) > 0 {
		overhead = (median(paired) - 1) * 100
	}
	m["obs.trace_overhead_pct"] = metric{overhead, "%"}
	gap := ratio(median(layered)-median(observed), median(observed)) * 100
	m["obs.reconcile_gap_pct"] = metric{gap, "%"}
	rec["reconciliation"] = map[string]any{
		"summed_self_p50_ms":     median(layered),
		"client_observed_p50_ms": median(observed),
		"gap_pct":                gap,
		"tolerance_pct":          reconcileTolerance * 100,
		"within_tolerance":       math.Abs(gap) <= reconcileTolerance*100,
		"traced_analyses":        len(observed),
		"paired_statements":      len(paired),
		"trace_overhead_pct":     overhead,
	}

	lt, _ := tail(out.late)
	m["loadgen.late_tail_ms"] = metric{lt, "ms"}
	m["loadgen.fail_ratio"] = metric{ratio(float64(out.failed), float64(out.attempted)), "ratio"}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func promDelta(before, after *obs.PromText, name string) float64 {
	a, _ := after.Sample(name)
	b, _ := before.Sample(name)
	return a - b
}

// probeBindings are the pair-matrix bindings the probe builds. Tag
// diversity is left out: it is the inverse of tag similarity and costs the
// same to build, and at paper scale each 12,000-wide tag build takes over
// half a minute.
var probeBindings = []struct {
	dim  mining.Dimension
	meas mining.Measure
}{
	{mining.Users, mining.Similarity}, {mining.Users, mining.Diversity},
	{mining.Items, mining.Similarity}, {mining.Items, mining.Diversity},
	{mining.Tags, mining.Similarity},
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) }

// layerProbe times the public functions of each layer serially, on fresh
// copies of the workload's corpus, after the load has ended.
func layerProbe(w *workload, seed int64) (map[string]metric, error) {
	ds, err := generateCorpus()
	if err != nil {
		return nil, err
	}
	st, err := store.New(ds)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}

	var parse []float64
	for range 20 {
		for _, q := range w.queries {
			t0 := time.Now()
			req, err := query.Parse(q.text())
			if err != nil {
				return nil, err
			}
			if _, err := req.Resolve(st.Len()); err != nil {
				return nil, err
			}
			parse = append(parse, since(t0)/1e3)
		}
	}
	out["query.parse_us"] = metric{median(parse), "us"}

	var eval, enumerate []float64
	for _, sc := range w.scopes() {
		pred, err := st.ParsePredicate(querySpec{where: sc}.scope())
		if err != nil {
			return nil, err
		}
		var bm *store.Bitmap
		for range 20 {
			t0 := time.Now()
			bm = st.Eval(pred)
			eval = append(eval, since(t0)/1e3)
		}
		for range 3 {
			t0 := time.Now()
			(&groups.Enumerator{Store: st, MinTuples: 5, Within: bm}).FullyDescribed()
			enumerate = append(enumerate, ms(since(t0)))
		}
	}
	out["store.eval_us"] = metric{median(eval), "us"}
	out["groups.enumerate_ms"] = metric{median(enumerate), "ms"}

	gs := (&groups.Enumerator{Store: st, MinTuples: 5}).FullyDescribed()
	sum := signature.FrequencyOfSize(ds.Vocab.Size())
	var summarize []float64
	for range 3 {
		t0 := time.Now()
		signature.SummarizeAll(sum, st, gs)
		summarize = append(summarize, ms(since(t0)))
	}
	out["signature.dim"] = metric{float64(sum.Dim()), "count"}
	out["signature.summarize_ms"] = metric{median(summarize), "ms"}

	// The maintainer takes ownership of its dataset; give it a copy.
	mds, err := generateCorpus()
	if err != nil {
		return nil, err
	}
	maint, err := incremental.New(mds, 5, signature.FrequencyOfSize(mds.Vocab.Size()))
	if err != nil {
		return nil, err
	}
	snap, err := maint.Snapshot()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, b := range probeBindings {
		snap.Engine.PairMatrix(b.dim, b.meas)
	}
	out["mining.build_s"] = metric{since(t0) / 1e9, "s"}

	rng := rand.New(rand.NewSource(seed))
	action := func() model.TaggingAction {
		a := model.TaggingAction{User: int32(rng.Intn(len(mds.Users))), Item: int32(rng.Intn(len(mds.Items)))}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			a.Tags = append(a.Tags, model.TagID(rng.Intn(mds.Vocab.Size())))
		}
		return a
	}
	var insert, snapshot []float64
	var rebuild float64
	for i := range 5 {
		t0 := time.Now()
		if err := maint.Insert(action()); err != nil {
			return nil, err
		}
		insert = append(insert, since(t0)/1e3)
		t0 = time.Now()
		next, err := maint.Snapshot()
		if err != nil {
			return nil, err
		}
		snapshot = append(snapshot, ms(since(t0)))
		if i == 0 {
			t0 = time.Now()
			for _, b := range probeBindings {
				next.Engine.PairMatrix(b.dim, b.meas)
			}
			rebuild = ms(since(t0))
		}
	}
	for range 200 {
		t0 := time.Now()
		if err := maint.Insert(action()); err != nil {
			return nil, err
		}
		insert = append(insert, since(t0)/1e3)
	}
	out["mining.rebuild_ms"] = metric{rebuild, "ms"}
	out["incremental.insert_us"] = metric{median(insert), "us"}
	out["incremental.snapshot_ms"] = metric{median(snapshot), "ms"}
	return out, nil
}
