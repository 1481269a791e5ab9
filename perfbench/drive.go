package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tagdm/internal/obs"
	"tagdm/internal/server"
)

// harness sends a workload's requests to one in-process server through
// ServeHTTP: the HTTP handling, result cache, worker pool and solvers are
// all on the path, with no sockets.
type harness struct {
	w   *workload
	srv *server.Server

	texts   []string // query text per mix index
	bodies  [][]byte // analyze request bodies, untraced
	tbodies [][]byte // the same with "trace": true

	// Ingest inputs: existing user and item ids and the corpus tags, so
	// ingests grow groups without creating entities or new tags.
	users, items int
	tags         []string

	book answerBook
}

type reqKind uint8

const (
	analyzeReq reqKind = iota
	ingestReq
)

// sample is one request as the client saw it.
type sample struct {
	kind reqKind
	// q is the analysis's index in the mix.
	q int
	// status is the HTTP status; 0 means the generator gave up on the
	// arrival before sending it because it was already past its limit.
	status int
	// lat is the client-observed latency: from the due time for an
	// open-loop ingest, from the send for a closed-loop analysis.
	lat time.Duration
	// wall is the ServeHTTP call alone.
	wall time.Duration
	// late is how long after its due time an open-loop arrival was sent.
	late     time.Duration
	inserted int
	// action is an ingest's action, set once the server acknowledged it.
	action *ingestAction
	// traced marks an analysis that asked for its span tree; span
	// summarizes the tree the server returned.
	traced bool
	span   *spanSummary
}

func newHarness(w *workload, srv *server.Server, users, items int, tags []string) *harness {
	h := &harness{w: w, srv: srv, users: users, items: items, tags: tags}
	h.book.first = map[string]*server.AnalyzeResponse{}
	for _, q := range w.queries {
		t := q.text()
		h.texts = append(h.texts, t)
		b, _ := json.Marshal(server.AnalyzeRequest{Query: t})
		tb, _ := json.Marshal(server.AnalyzeRequest{Query: t, Trace: true})
		h.bodies = append(h.bodies, b)
		h.tbodies = append(h.tbodies, tb)
	}
	return h
}

// answerBook holds the first answer the run observed per (query, epoch).
// Every repeat must be byte-identical to it, and the reference pipeline
// checks the answers of the epochs it rebuilds.
type answerBook struct {
	mu         sync.Mutex
	first      map[string]*server.AnalyzeResponse
	mismatches []string
}

func answerKey(query string, epoch int64) string {
	return query + "@" + strconv.FormatInt(epoch, 10)
}

// answer is the first answer to query at epoch, or nil.
func (b *answerBook) answer(query string, epoch int64) *server.AnalyzeResponse {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first[answerKey(query, epoch)]
}

// canonical renders the parts of an answer that must repeat exactly:
// everything but the cache flag, the solve time and the trace.
func canonical(r *server.AnalyzeResponse) string {
	b := make([]byte, 0, 256)
	b = strconv.AppendBool(b, r.Found)
	b = append(b, ' ')
	b = append(b, r.Algorithm...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, math.Float64bits(r.Objective), 16)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Support), 10)
	for _, g := range r.Groups {
		b = append(b, " ["...)
		b = append(b, g.Description...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(g.Size), 10)
		b = append(b, ']')
	}
	return string(b)
}

// post builds a POST request for ServeHTTP directly, skipping the request
// parsing httptest.NewRequest does, to keep the client's garbage small
// beside the server's.
func post(path string, body []byte) *http.Request {
	return &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: path},
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "perfbench",
		RequestURI:    path,
	}
}

func (b *answerBook) record(r *server.AnalyzeResponse) {
	key := answerKey(r.Query, r.Epoch)
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, ok := b.first[key]
	if !ok {
		b.first[key] = r
		return
	}
	if c, p := canonical(r), canonical(prev); c != p && len(b.mismatches) < 10 {
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: answered %q, earlier %q", key, c, p))
	}
}

func (b *answerBook) fail(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.mismatches) < 10 {
		b.mismatches = append(b.mismatches, msg)
	}
}

func (h *harness) analyze(qi int, traced bool) sample {
	body := h.bodies[qi]
	if traced {
		body = h.tbodies[qi]
	}
	req := post("/v1/analyze", body)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.srv.ServeHTTP(rec, req)
	s := sample{kind: analyzeReq, q: qi, status: rec.Code, wall: time.Since(t0), traced: traced}
	if rec.Code != http.StatusOK {
		return s
	}
	resp := new(server.AnalyzeResponse)
	if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
		h.book.fail(fmt.Sprintf("%s: undecodable answer: %v", h.texts[qi], err))
		return s
	}
	if resp.Query != h.texts[qi] {
		h.book.fail(fmt.Sprintf("%s: answer is for %q", h.texts[qi], resp.Query))
	}
	if resp.Trace != nil {
		s.span = summarize(resp.Trace)
		resp.Trace = nil
	}
	h.book.record(resp)
	return s
}

func (h *harness) ingest(a arrival) sample {
	req := post("/v1/actions", a.body)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.srv.ServeHTTP(rec, req)
	s := sample{kind: ingestReq, status: rec.Code, wall: time.Since(t0)}
	if rec.Code == http.StatusOK {
		var resp server.IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			h.book.fail(fmt.Sprintf("undecodable ingest answer: %v", err))
		}
		s.inserted, s.action = resp.Inserted, a.action
	}
	return s
}

// call sends a request with no body to path and returns the response body.
func (h *harness) call(method, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

func (h *harness) stats() (*server.StatsResponse, error) {
	b, err := h.call(http.MethodGet, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

func (h *harness) metrics() (*obs.PromText, error) {
	b, err := h.call(http.MethodGet, "/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParsePrometheus(b)
}

// arrival is one open-loop ingest: its action, its request body and when
// it is due.
type arrival struct {
	at     time.Duration
	action *ingestAction
	body   []byte
}

// ingestAction is one action of an ingest: an existing user and item with
// one to three corpus tags.
type ingestAction struct {
	User int32    `json:"user"`
	Item int32    `json:"item"`
	Tags []string `json:"tags"`
}

// ingestArrivals draws Poisson ingest arrivals at rate per second over the
// window, each a single-action ingest.
func (h *harness) ingestArrivals(rng *rand.Rand, window time.Duration, rate float64) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < window.Seconds(); t += rng.ExpFloat64() / rate {
		a := &ingestAction{User: int32(rng.Intn(h.users)), Item: int32(rng.Intn(h.items))}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			a.Tags = append(a.Tags, h.tags[rng.Intn(len(h.tags))])
		}
		req := map[string]any{"actions": []*ingestAction{a}}
		if !h.w.publish {
			req["refresh"] = false
		}
		body, _ := json.Marshal(req)
		out = append(out, arrival{at: time.Duration(t * float64(time.Second)), action: a, body: body})
	}
	return out
}

// orderSeed fixes the closed-loop analysis order across runs. Which
// statements two analysts run side by side moves the analyze tail by about
// 15% between orders, against about 5% between repeats of one order, so
// the order is part of the workload and --seed draws the ingests.
const orderSeed = 1

// rounds is the closed-loop analysis order: permutations of the mix drawn
// from orderSeed, so every round of len(mix) requests runs each statement
// once.
func (h *harness) rounds() []int {
	rng := rand.New(rand.NewSource(orderSeed))
	var seq []int
	for range 200 {
		seq = append(seq, rng.Perm(len(h.w.queries))...)
	}
	return seq
}

// openLoop sends each ingest at its due time, whatever the server's
// progress. At most runtime.NumCPU() requests are in flight; an arrival
// that cannot be sent before its latency limit expires is given up and
// counted as failed. Latency runs from the due time, so a stall delays
// every arrival queued behind it.
func (h *harness) openLoop(arrivals []arrival) []sample {
	sem := make(chan struct{}, runtime.NumCPU())
	out := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		sleepUntil(due)
		if !acquire(sem, due.Add(ingestLimit)) {
			out[i] = sample{kind: ingestReq, lat: time.Since(due), late: time.Since(due)}
			continue
		}
		late := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s := h.ingest(a)
			s.lat, s.late = time.Since(due), late
			out[i] = s
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil waits for t. Go timers wake up to a millisecond late here
// (the poller's timeout has millisecond resolution), which would dominate
// the latency of millisecond requests, so the last stretch of the wait is a
// nanosleep system call, precise to tens of microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep only sends the arrival early by the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// acquire takes a slot of sem, waiting no later than deadline.
func acquire(sem chan struct{}, deadline time.Time) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// closedLoop runs clients that each send the next statement of seq as soon
// as their previous one is answered. Sending stops at the first round
// boundary after the window ends, so a run always measures whole rounds
// and every statement of the mix equally often. With trace set, every
// other round asks for span trees and sending stops only after an even
// number of rounds, so every statement is measured traced and untraced
// equally often.
func (h *harness) closedLoop(seq []int, clients int, window time.Duration, trace bool) []sample {
	round := len(h.w.queries)
	boundary := round
	if trace {
		boundary = 2 * round
	}
	deadline := time.Now().Add(window)
	var mu sync.Mutex
	next, done := 0, false
	draw := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next%boundary == 0 && !time.Now().Before(deadline) {
			done = true
		}
		if done {
			return 0, false
		}
		next++
		return next - 1, true
	}
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := draw()
				if !ok {
					return
				}
				t0 := time.Now()
				s := h.analyze(seq[i%len(seq)], trace && (i/round)%2 == 0)
				s.lat = time.Since(t0)
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// phase runs the workload's load for one window: closed-loop analysts
// beside an open-loop ingest stream. It returns every sample with the time
// from the first send until the last answer.
func (h *harness) phase(seed int64, window time.Duration, trace bool) ([]sample, time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	ingests := h.ingestArrivals(rng, window, h.w.ingestRate)
	seq := h.rounds()
	start := time.Now()
	var ingested []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ingested = h.openLoop(ingests)
	}()
	out := h.closedLoop(seq, h.w.clients, window, trace)
	wg.Wait()
	return append(out, ingested...), time.Since(start)
}
