// Command perfbench is the repository benchmark. It runs one workload
// against an in-process tagdm server, sending every request through
// ServeHTTP, checks the answers, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a run in which every other round of analyses returns span trees, plus a
// serial probe of each layer's public functions. The line before it is a
// self-describing record of the run. A failed answer check exits with
// status 1. See README.md for the workloads and what each metric measures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tagdm"
	"tagdm/internal/model"
	"tagdm/internal/server"
	"tagdm/internal/wal"
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "seed of the generated requests")
	seconds := fl.Int("seconds", 10, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := fl.String("workdir", ".bench_build", "directory for the durable workloads' data")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: %v\n", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	res, rec, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the server configuration of a workload.
func (w *workload) config(dataDir string) server.Config {
	cfg := server.Config{Seed: serverSeed, CacheSize: cacheOff}
	if w.durable {
		cfg.DataDir, cfg.FsyncMode = dataDir, wal.SyncAlways
	}
	return cfg
}

func execute(w *workload, o options) (*result, map[string]any, error) {
	runDir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)
	// phases is the wall time of each part of the run, for the record.
	phases := map[string]float64{}
	mark := time.Now()
	lap := func(name string) {
		phases[name] += time.Since(mark).Seconds()
		mark = time.Now()
	}

	// The reference copy of the corpus feeds the answer check, and its
	// entity counts and tags the ingest generator.
	ref, err := generateCorpus()
	if err != nil {
		return nil, nil, err
	}
	setups := w.setups
	if o.trace {
		setups = 1
	}
	h, setupS, err := setUp(w, ref, runDir, setups)
	if err != nil {
		return nil, nil, err
	}
	closeServer := sync.OnceFunc(h.srv.Close)
	defer closeServer()
	lap("setups")

	st0, err := h.stats()
	if err != nil {
		return nil, nil, err
	}
	// Workloads whose ingests publish move the epoch as soon as the load
	// starts, so every statement is answered once at epoch 0 first.
	if w.publish {
		if err := h.answerAll(); err != nil {
			return nil, nil, err
		}
	}
	before, err := h.scrape()
	if err != nil {
		return nil, nil, err
	}
	lap("answer_passes")
	samples, elapsed := h.phase(o.seed, time.Duration(o.seconds)*time.Second, o.trace)
	lap("window")
	after, err := h.scrape()
	if err != nil {
		return nil, nil, err
	}
	// A read-only workload stays at epoch 0: statements the load did not
	// reach are answered now.
	if !w.publish {
		if err := h.answerAll(); err != nil {
			return nil, nil, err
		}
	}
	checks := map[string]string{}
	acked, err := h.checkActionCount(st0, samples, checks)
	if err != nil {
		return nil, nil, err
	}
	// The answers of a publishing workload's window are checked at its
	// final epoch, which holds every acknowledged action: each statement
	// is answered there once more, and the reference replays the actions.
	finalEpoch := h.srv.Epoch()
	if w.publish {
		if err := h.answerAll(); err != nil {
			return nil, nil, err
		}
	}
	stEnd, err := h.stats()
	if err != nil {
		return nil, nil, err
	}
	lap("answer_passes")
	// The server's heap is the difference the server makes to the live
	// heap, so the benchmark's own records do not count. Releasing it also
	// leaves the reference pipeline memory of its own.
	withServer := liveHeap()
	closeServer()
	h.srv = nil
	serverHeap := withServer - liveHeap()

	gate, err := checkReference(w, ref, &h.book, 0, true)
	if err != nil {
		return nil, nil, err
	}
	mismatches := append(h.book.mismatches, gate.mismatches...)
	checks["answers_repeat_identically"] = verdict(len(h.book.mismatches) == 0)
	checks["epoch0_matches_reference"] = verdict(len(gate.mismatches) == 0)
	if w.publish {
		final, err := generateCorpus()
		if err != nil {
			return nil, nil, err
		}
		appendActions(final, acked)
		fg, err := checkReference(w, final, &h.book, finalEpoch, false)
		if err != nil {
			return nil, nil, err
		}
		mismatches = append(mismatches, fg.mismatches...)
		checks["final_epoch_matches_reference"] = verdict(len(fg.mismatches) == 0)
	}
	lap("reference_checks")
	for _, m := range mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: answer check failed: %s\n", w.name, m)
	}
	out := splitSamples(samples)
	res := &result{Correct: true, Attempted: len(samples), Failed: out.failed, Metrics: map[string]metric{}}
	for _, v := range checks {
		res.Correct = res.Correct && v == "pass"
	}
	rec := h.record(o, st0, stEnd, setupS, out, elapsed, gate, checks)
	rec["phase_s"] = phases
	hits, misses := after.stats.Cache.Hits-before.stats.Cache.Hits, after.stats.Cache.Misses-before.stats.Cache.Misses
	rec["cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	if !o.trace {
		endToEnd(res.Metrics, out, elapsed)
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["approx_ratio"] = metric{meanOf(gate.ratios), "ratio"}
		res.Metrics["live_heap_mb"] = metric{serverHeap / 1e6, "MB"}
		return res, rec, nil
	}
	layerMetrics(res.Metrics, out, before, after, rec)
	probe, err := layerProbe(w, o.seed)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probe {
		res.Metrics[k] = v
	}
	lap("layer_probe")
	return res, rec, nil
}

// setUp builds the workload's server n times, each from a fresh copy of the
// corpus, and returns the last one with every set-up time: from server.New
// until the warm-up pass ends.
func setUp(w *workload, ref *tagdm.Dataset, runDir string, n int) (*harness, []float64, error) {
	var tags []string
	for id := range ref.Vocab.Size() {
		tags = append(tags, ref.Vocab.Tag(model.TagID(id)))
	}
	var times []float64
	var h *harness
	for i := range n {
		if h != nil {
			h.srv.Close()
			h = nil
		}
		ds, err := generateCorpus()
		if err != nil {
			return nil, nil, err
		}
		cfg := w.config(filepath.Join(runDir, fmt.Sprintf("setup-%d", i)))
		cfg.Dataset = ds
		t0 := time.Now()
		srv, err := server.New(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("server.New: %w", err)
		}
		h = newHarness(w, srv, len(ref.Users), len(ref.Items), tags)
		for _, qi := range w.warmupQueries() {
			if s := h.analyze(qi, false); s.status != http.StatusOK {
				srv.Close()
				return nil, nil, fmt.Errorf("warm-up %q: status %d", h.texts[qi], s.status)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return h, times, nil
}

// liveHeap is the heap in bytes after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc)
}

func verdict(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// answerAll answers every statement of the mix not yet answered at the
// current epoch, runtime.NumCPU() at a time.
func (h *harness) answerAll() error {
	var todo []int
	for qi := range h.w.queries {
		if h.book.answer(h.texts[qi], h.srv.Epoch()) == nil {
			todo = append(todo, qi)
		}
	}
	return forEach(len(todo), func(i int) error {
		if s := h.analyze(todo[i], false); s.status != http.StatusOK {
			return fmt.Errorf("%q: status %d", h.texts[todo[i]], s.status)
		}
		return nil
	})
}

// checkActionCount publishes any pending inserts and checks that the
// published action count is the initial count plus every acknowledged
// insert. It returns the acknowledged actions.
func (h *harness) checkActionCount(st0 *server.StatsResponse, all []sample, checks map[string]string) ([]*ingestAction, error) {
	var acked []*ingestAction
	inserted := 0
	for _, s := range all {
		inserted += s.inserted
		if s.action != nil {
			acked = append(acked, s.action)
		}
	}
	st, err := h.stats()
	if err != nil {
		return nil, err
	}
	if st.PendingInserts > 0 {
		if _, err := h.call(http.MethodPost, "/v1/refresh"); err != nil {
			return nil, err
		}
		if st, err = h.stats(); err != nil {
			return nil, err
		}
	}
	ok := st.Actions == st0.Actions+inserted
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d actions published, want %d + %d acknowledged\n",
			h.w.name, st.Actions, st0.Actions, inserted)
	}
	checks["action_count"] = verdict(ok)
	return acked, nil
}

// outcome is a window's samples split once by kind and status.
type outcome struct {
	// analyses are the analyses answered 200; alat and ilat are the
	// latencies in ms of the analyses and ingests answered 200.
	analyses   []sample
	alat, ilat []float64
	// late is the send lateness in ms of every open-loop arrival that was
	// late at all.
	late []float64
	// failed counts requests refused, timed out, errored or given up
	// before sending; unsent counts the last kind alone.
	failed, unsent, attempted int
}

func splitSamples(samples []sample) *outcome {
	out := &outcome{attempted: len(samples)}
	for _, s := range samples {
		if s.late > 0 {
			out.late = append(out.late, ms(float64(s.late)))
		}
		switch {
		case s.status == 0:
			out.unsent++
			out.failed++
		case s.status != http.StatusOK:
			out.failed++
		case s.kind == ingestReq:
			out.ilat = append(out.ilat, ms(float64(s.lat)))
		default:
			out.analyses = append(out.analyses, s)
			out.alat = append(out.alat, ms(float64(s.lat)))
		}
	}
	return out
}

// endToEnd fills the user-visible metrics of one untraced window that took
// elapsed from the first send to the last answer.
func endToEnd(m map[string]metric, out *outcome, elapsed time.Duration) {
	good := 0
	for _, l := range out.alat {
		if l <= ms(float64(analyzeLimit)) {
			good++
		}
	}
	at, _ := tail(out.alat)
	it, _ := tail(out.ilat)
	m["analyze_p50_ms"] = metric{median(out.alat), "ms"}
	m["analyze_tail_ms"] = metric{at, "ms"}
	m["goodput_rps"] = metric{float64(good) / elapsed.Seconds(), "1/s"}
	m["ingest_p50_ms"] = metric{median(out.ilat), "ms"}
	m["ingest_tail_ms"] = metric{it, "ms"}
}

// record describes the run: code, machine, corpus, server configuration,
// load and sample counts.
func (h *harness) record(o options, st0, stEnd *server.StatsResponse, setupS []float64, out *outcome, elapsed time.Duration, gate *gateResult, checks map[string]string) map[string]any {
	w := h.w
	_, apct := tail(out.alat)
	_, ipct := tail(out.ilat)
	load := map[string]any{
		"analyze_limit_ms": analyzeLimit.Milliseconds(),
		"ingest_limit_ms":  ingestLimit.Milliseconds(),
		"ingest_publishes": w.publish,
		"max_in_flight":    runtime.NumCPU(),
	}
	load["analyze_loop"] = "closed"
	load["clients"] = w.clients
	load["ingest_loop"] = "open (Poisson)"
	load["ingest_rate_per_s"] = w.ingestRate
	fsync := "none (in memory)"
	if st0.Durability.Enabled {
		fsync = st0.Durability.FsyncMode
	}
	commit := os.Getenv("TAGDM_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      w.name,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"corpus": map[string]any{
			"scale": "paper", "actions": st0.Actions, "groups": st0.Groups,
			"users": st0.Users, "items": st0.Items, "vocab": st0.VocabSize,
		},
		"signature": map[string]any{"kind": "frequency", "width": st0.VocabSize},
		"server": map[string]any{
			"shards": st0.Shards, "workers": st0.Pool.Workers, "queue_capacity": st0.Pool.Capacity,
			"cache_capacity": st0.Cache.Capacity, "refresh_every": 1, "seed": serverSeed,
			"prewarm_matrices": false, "matrix_budget_bytes": st0.Matrix.BudgetBytes,
			"durable": w.durable, "fsync": fsync,
		},
		"load": load,
		"samples": map[string]any{
			"analyze": len(out.alat), "analyze_tail_percentile": apct,
			"ingest": len(out.ilat), "ingest_tail_percentile": ipct,
			"unsent_past_limit":     out.unsent,
			"generator_late_p50_ms": median(out.late), "generator_late_max_ms": quantile(out.late, 1),
			"failed": out.failed, "attempted": out.attempted,
		},
		"measured_s":       elapsed.Seconds(),
		"setup_s_samples":  setupS,
		"audited_queries":  len(gate.ratios),
		"distinct_queries": len(w.queries),
		"final_epoch":      stEnd.Epoch,
		"checks":           checks,
	}
}

// sourceDigest hashes the Go sources and module files of the checkout, so
// a record identifies the code it measured even outside a git repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unavailable: " + err.Error()
		}
		fmt.Fprintf(sum, "%s %d\n", f, len(b))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}
