package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"tagdm"
	"tagdm/internal/model"
	"tagdm/internal/server"
)

// serverSeed is the LSH seed the benchmark gives the server and the
// reference pipeline alike.
const serverSeed = 1

// auditMaxGroups bounds the analyses the quality audit runs Exact on; the
// unscoped paper corpus (1,827 groups) is far beyond the Exact baseline.
const auditMaxGroups = 500

// referenceAnalysis is the library pipeline the served answers must equal
// at epoch 0. It is the single place that names the server's signature
// method, so it follows the server when that changes.
func referenceAnalysis(ds *tagdm.Dataset, within map[string]string) (*tagdm.Analysis, error) {
	return tagdm.NewAnalysis(ds, tagdm.Options{
		Signatures: tagdm.SignatureFrequency,
		Seed:       serverSeed,
		Within:     within,
	})
}

// gateResult is what the reference comparison and the quality audit found.
type gateResult struct {
	mismatches []string
	// ratios holds served objective / Exact optimum per audited query.
	ratios []float64
}

// appendActions adds acknowledged ingest actions to ds, as the server
// applies them: existing users and items, tags interned by name.
func appendActions(ds *tagdm.Dataset, acked []*ingestAction) {
	for _, a := range acked {
		act := model.TaggingAction{User: a.User, Item: a.Item}
		for _, t := range a.Tags {
			act.Tags = append(act.Tags, ds.Vocab.ID(t))
		}
		ds.Actions = append(ds.Actions, act)
	}
}

// checkReference solves every statement of the mix on the reference
// pipeline over ds and compares the answer with the first one the server
// gave at epoch, which must hold exactly the actions of ds. With audit set
// it also runs Exact where the analysis is small enough. Scopes are checked
// in parallel, one reference analysis each.
func checkReference(w *workload, ds *tagdm.Dataset, book *answerBook, epoch int64, audit bool) (*gateResult, error) {
	var scopes [][]querySpec
	index := map[string]int{}
	for _, q := range w.queries {
		key := scopeKey(q.where)
		i, ok := index[key]
		if !ok {
			i = len(scopes)
			index[key] = i
			scopes = append(scopes, nil)
		}
		scopes[i] = append(scopes[i], q)
	}
	found := make([][]statementCheck, len(scopes))
	err := forEach(len(scopes), func(i int) error {
		a, err := referenceAnalysis(ds, scopes[i][0].scope())
		if err != nil {
			return fmt.Errorf("reference analysis for %q: %w", scopes[i][0].text(), err)
		}
		for _, q := range scopes[i] {
			c, err := checkStatement(a, q.text(), book.answer(q.text(), epoch), epoch, audit)
			if err != nil {
				return err
			}
			found[i] = append(found[i], c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := &gateResult{}
	for _, cs := range found {
		for _, c := range cs {
			if c.mismatch != "" {
				g.mismatches = append(g.mismatches, c.mismatch)
			}
			if c.audited {
				g.ratios = append(g.ratios, c.ratio)
			}
		}
	}
	return g, nil
}

// statementCheck is what checking one statement found: a mismatch with the
// reference, if any, and the audit's served / Exact ratio, if audited.
type statementCheck struct {
	mismatch string
	ratio    float64
	audited  bool
}

// checkStatement solves text on the reference analysis a and compares the
// answer with got, the server's answer at epoch.
func checkStatement(a *tagdm.Analysis, text string, got *server.AnalyzeResponse, epoch int64, audit bool) (statementCheck, error) {
	var c statementCheck
	req, err := tagdm.ParseQuery(text)
	if err != nil {
		return c, fmt.Errorf("parsing %q: %w", text, err)
	}
	spec, err := req.Resolve(a.NumActions())
	if err != nil {
		return c, fmt.Errorf("resolving %q: %w", text, err)
	}
	res, err := a.Solve(spec)
	if err != nil {
		return c, fmt.Errorf("reference solve of %q: %w", text, err)
	}
	if got == nil {
		c.mismatch = fmt.Sprintf("%s: never answered at epoch %d", text, epoch)
		return c, nil
	}
	want := &server.AnalyzeResponse{Found: res.Found, Algorithm: res.Algorithm, Objective: res.Objective, Support: res.Support}
	for i, desc := range a.Describe(res) {
		want.Groups = append(want.Groups, server.GroupResult{Description: desc, Size: res.Groups[i].Size()})
	}
	if sc, rc := canonical(got), canonical(want); sc != rc {
		c.mismatch = fmt.Sprintf("%s at epoch %d: served %q, reference %q", text, epoch, sc, rc)
	}
	if !audit || a.NumGroups() > auditMaxGroups {
		return c, nil
	}
	ex, err := a.Exact(spec, tagdm.ExactOptions{})
	if err != nil {
		return c, fmt.Errorf("exact solve of %q: %w", text, err)
	}
	if !ex.Found {
		return c, nil
	}
	c.audited, c.ratio = true, 1
	switch {
	case !got.Found:
		c.ratio = 0
	case ex.Objective != 0:
		c.ratio = got.Objective / ex.Objective
	}
	return c, nil
}

// forEach calls f(0) to f(n-1), runtime.NumCPU() calls at a time, and
// returns the first error.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(n, runtime.NumCPU()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}
