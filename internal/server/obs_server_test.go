package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/obs"
)

// scrapeMetrics fetches /metrics and runs it through the strict parser;
// any deviation from the Prometheus text format fails the test.
func scrapeMetrics(t testing.TB, ts *httptest.Server) *obs.PromText {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("metrics exposition rejected: %v\n%s", err, buf.String())
	}
	return pt
}

// TestMetricsPrometheusFormat drives every endpoint (including an unknown
// path and a cache hit), then requires the whole exposition to satisfy the
// strict parser and the per-family series to agree with /v1/stats — the
// two views must read the same atomics.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	analyze(t, ts, testQuery)
	analyze(t, ts, testQuery) // cache hit
	analyze(t, ts, "ANALYZE MAXIMIZE diversity(tags) SUBJECT TO similarity(items) >= 0.1 WITH k=2")
	user, item := int32(0), int32(0)
	postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &user, Item: &item, Rating: 3, Tags: []string{"gun"}},
	}})
	if resp, err := http.Get(ts.URL + "/no/such/path"); err == nil {
		resp.Body.Close()
	}

	pt := scrapeMetrics(t, ts)
	for fam, typ := range map[string]string{
		"tagdm_requests_total":        "counter",
		"tagdm_solves_total":          "counter",
		"tagdm_matrix_builds_total":   "counter",
		"tagdm_request_seconds":       "histogram",
		"tagdm_solve_latency_seconds": "histogram",
		"tagdm_solve_stage_seconds":   "histogram",
		"tagdm_ingest_batch_seconds":  "histogram",
		"tagdm_snapshot_epoch":        "gauge",
		"tagdm_postings_lists":        "gauge",
	} {
		if got := pt.Types[fam]; got != typ {
			t.Fatalf("family %s has type %q, want %q", fam, got, typ)
		}
	}

	// The ingest published a snapshot, so the epoch gauge must have moved.
	if v, ok := pt.Sample("tagdm_snapshot_epoch"); !ok || v != 1 {
		t.Fatalf("tagdm_snapshot_epoch = %g (ok=%v), want 1", v, ok)
	}
	// The unknown path lands in the bounded "other" endpoint label.
	if v, ok := pt.Sample("tagdm_requests_total", "endpoint", "other"); !ok || v != 1 {
		t.Fatalf(`tagdm_requests_total{endpoint="other"} = %g (ok=%v), want 1`, v, ok)
	}
	if v, ok := pt.Sample("tagdm_cache_hits_total"); !ok || v != 1 {
		t.Fatalf("tagdm_cache_hits_total = %g (ok=%v), want 1", v, ok)
	}
	// The diversity query ran the DV-FDP family once; each of its stages
	// plus the synthetic total must have exactly one observation.
	for _, stage := range []string{core.StageMatrix, core.StageGreedy, core.StageLocalSearch, stageTotal} {
		if v, ok := pt.Sample("tagdm_solve_stage_seconds_count", "family", "dvfdp", "stage", stage); !ok || v != 1 {
			t.Fatalf("dvfdp stage %s count = %g (ok=%v), want 1", stage, v, ok)
		}
	}

	// Cross-check against /v1/stats: both endpoints read the same registry
	// atomics, so every shared number must match exactly.
	stats := getStats(t, ts)
	if v, _ := pt.Sample("tagdm_cache_hits_total"); int64(v) != stats.Cache.Hits {
		t.Fatalf("cache hits drifted: metrics %g vs stats %d", v, stats.Cache.Hits)
	}
	var total int64
	for _, fam := range []string{"exact", "smlsh", "dvfdp"} {
		v, ok := pt.Sample("tagdm_solves_total", "family", fam)
		if !ok {
			t.Fatalf("missing tagdm_solves_total{family=%q}", fam)
		}
		fs := stats.Solve.Families[fam]
		if int64(v) != fs.Count {
			t.Fatalf("family %s drifted: metrics %g vs stats %d", fam, v, fs.Count)
		}
		ce, _ := pt.Sample("tagdm_candidates_examined_total", "family", fam)
		if int64(ce) != fs.CandidatesExamined {
			t.Fatalf("family %s examined drifted: metrics %g vs stats %d", fam, ce, fs.CandidatesExamined)
		}
		total += fs.Count
	}
	if total != stats.Solve.Count {
		t.Fatalf("per-family counts sum to %d, total says %d", total, stats.Solve.Count)
	}
}

// TestSnapshotPublishPhases checks that one publish observes every phase
// of tagdm_snapshot_publish_seconds exactly once: the boot publish, then
// the one an ingest triggers.
func TestSnapshotPublishPhases(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	counts := func(pt *obs.PromText) []float64 {
		out := make([]float64, len(publishPhases))
		for i, phase := range publishPhases {
			v, ok := pt.Sample("tagdm_snapshot_publish_seconds_count", "phase", phase)
			if !ok {
				t.Fatalf("missing tagdm_snapshot_publish_seconds{phase=%q}", phase)
			}
			out[i] = v
		}
		return out
	}
	if got := counts(scrapeMetrics(t, ts)); !slices.Equal(got, []float64{1, 1, 1}) {
		t.Fatalf("boot publish observed phases %v, want one each", got)
	}
	user, item := int32(0), int32(0)
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &user, Item: &item, Tags: []string{"gun"}},
	}})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"published":true`) {
		t.Fatalf("ingest did not publish: %d %s", resp.StatusCode, body)
	}
	if got := counts(scrapeMetrics(t, ts)); !slices.Equal(got, []float64{2, 2, 2}) {
		t.Fatalf("after one ingest publish phases %v, want two each", got)
	}
}

func analyzeTraced(t testing.TB, ts *httptest.Server, query string) (*http.Response, AnalyzeResponse) {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/analyze", AnalyzeRequest{Query: query, Trace: true})
	var out AnalyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return resp, out
}

func TestAnalyzeTraceSpanTree(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	httpResp, first := analyzeTraced(t, ts, testQuery)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", httpResp.StatusCode)
	}
	if first.Trace == nil || first.Trace.Name != "analyze" {
		t.Fatalf("trace = %+v, want analyze root", first.Trace)
	}
	if first.RequestID == "" {
		t.Fatal("traced response has no request id")
	}
	if got := httpResp.Header.Get("X-Request-ID"); got != first.RequestID {
		t.Fatalf("X-Request-ID header %q != body request id %q", got, first.RequestID)
	}
	if got := first.Trace.Attrs["request_id"]; got != any(first.RequestID) {
		t.Fatalf("root span request_id attr = %v, want %q", got, first.RequestID)
	}
	for _, name := range []string{"parse", "cache", "solve", "encode"} {
		if first.Trace.Find(name) == nil {
			t.Fatalf("trace missing %s span: %+v", name, first.Trace)
		}
	}
	// The solver's per-stage spans nest under solve: testQuery is an
	// SM-LSH problem, so its three stages must be present with real time.
	solve := first.Trace.Find("solve")
	for _, stage := range []string{core.StageMatrix, core.StageLSHBuild, core.StageBucketScan} {
		sp := solve.Find(stage)
		if sp == nil {
			t.Fatalf("solve span missing %s child: %+v", stage, solve)
		}
		if sp.WallMs < 0 {
			t.Fatalf("stage %s has negative wall time %v", stage, sp.WallMs)
		}
	}

	// A cache hit still traces, but records a hit and never reaches the
	// solver.
	_, second := analyzeTraced(t, ts, testQuery)
	if !second.Cached {
		t.Fatal("repeat traced query missed the cache")
	}
	if second.Trace == nil || second.Trace.Find("solve") != nil {
		t.Fatalf("cached trace should have no solve span: %+v", second.Trace)
	}
	cacheSpan := second.Trace.Find("cache")
	if cacheSpan == nil || cacheSpan.Attrs["hit"] != any(true) {
		t.Fatalf("cached trace cache span = %+v, want hit=true", cacheSpan)
	}

	// Untraced requests must not carry a tree.
	_, plain := analyze(t, ts, "ANALYZE PROBLEM 1 WITH k=2, support=2, q=0.1, r=0.1")
	if plain.Trace != nil || plain.RequestID != "" {
		t.Fatalf("untraced response leaked trace fields: %+v", plain)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written after the HTTP response has already been delivered.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestAccessLogAndSlowSolveReport(t *testing.T) {
	var buf syncBuffer
	ts := httptest.NewServer(newTestServer(t, func(c *Config) {
		c.AccessLog = obs.NewJSONLogger(&buf, slog.LevelInfo)
		c.SlowSolve = time.Nanosecond // every real solve is "slow"
	}))
	defer ts.Close()

	status, resp := analyze(t, ts, testQuery)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}

	// Both log lines are written after the response body, so poll briefly.
	var access, slow map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		access, slow = nil, nil
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("access log line is not JSON: %q: %v", line, err)
			}
			switch m["msg"] {
			case "request":
				if m["path"] == "/v1/analyze" {
					access = m
				}
			case "slow solve":
				slow = m
			}
		}
		if access != nil && slow != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if access == nil {
		t.Fatalf("no access-log line for /v1/analyze:\n%s", buf.String())
	}
	if access["status"] != float64(http.StatusOK) {
		t.Fatalf("access log status = %v, want 200", access["status"])
	}
	reqID, _ := access["request_id"].(string)
	if reqID == "" {
		t.Fatalf("access log has no request id: %v", access)
	}

	if slow == nil {
		t.Fatalf("no slow-solve report despite 1ns threshold:\n%s", buf.String())
	}
	if slow["request_id"] != access["request_id"] {
		t.Fatalf("slow report request id %v != access log %v", slow["request_id"], access["request_id"])
	}
	if slow["query"] != resp.Query {
		t.Fatalf("slow report query = %v, want %q", slow["query"], resp.Query)
	}
	if _, ok := slow["spec"].(map[string]any); !ok {
		t.Fatalf("slow report has no resolved spec object: %v", slow["spec"])
	}
	tree, ok := slow["trace"].(map[string]any)
	if !ok || tree["name"] != "analyze" {
		t.Fatalf("slow report trace = %v, want analyze span tree", slow["trace"])
	}

	pt := scrapeMetrics(t, ts)
	if v, _ := pt.Sample("tagdm_slow_solves_total"); v != 1 {
		t.Fatalf("tagdm_slow_solves_total = %g, want 1", v)
	}
}
