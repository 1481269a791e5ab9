package incremental

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// This file pins the copy-on-write epoch scheme: a snapshot shares every
// column prefix, posting list and group that no insert touched since the
// previous snapshot, and that sharing must never let a later insert reach
// into an older epoch.

// retainedEpoch is one published snapshot together with what it must keep
// answering for as long as anyone holds it.
type retainedEpoch struct {
	snap *Snapshot
	// want holds the answers recorded right after the snapshot was taken.
	want []core.Result
	// ref is a store built from scratch over the same action prefix.
	ref *store.Store
}

// solveFamilies runs Exact on every carry spec, plus SM-LSH on the
// similarity spec and DV-FDP on the diversity spec.
func solveFamilies(eng *core.Engine) ([]core.Result, error) {
	ctx := context.Background()
	var out []core.Result
	for _, spec := range carrySpecs() {
		res, err := eng.Exact(ctx, spec, core.ExactOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		if spec.Objectives[0].Meas == mining.Similarity {
			res, err = eng.SMLSH(ctx, spec, core.LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: core.Fold})
		} else {
			res, err = eng.DVFDP(ctx, spec, core.FDPOptions{Mode: core.Fold})
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// verify re-solves the epoch and compares its frozen store and groups with
// the from-scratch reference.
func (ep *retainedEpoch) verify() error {
	got, err := solveFamilies(ep.snap.Engine)
	if err != nil {
		return err
	}
	for i := range ep.want {
		if diff := diffResult(ep.want[i], got[i]); diff != "" {
			return fmt.Errorf("epoch %d answer %d drifted: %s", ep.snap.Version, i, diff)
		}
	}
	st, ref := ep.snap.Store, ep.ref
	if st.Len() != ref.Len() {
		return fmt.Errorf("epoch %d: Len %d, rebuild %d", ep.snap.Version, st.Len(), ref.Len())
	}
	for _, c := range ref.Columns() {
		for t := 0; t < ref.Len(); t++ {
			if st.Value(t, c) != ref.Value(t, c) {
				return fmt.Errorf("epoch %d: tuple %d column %v differs", ep.snap.Version, t, c)
			}
		}
		for v := model.ValueCode(0); int(v) <= ref.ColumnAttr(c).Cardinality(); v++ {
			if got, want := postingCount(st, c, v), postingCount(ref, c, v); got != want {
				return fmt.Errorf("epoch %d: posting %v=%d counts %d, rebuild %d", ep.snap.Version, c, v, got, want)
			}
		}
	}
	for _, g := range ep.snap.Groups {
		want := ref.Eval(g.Pred).Slice()
		if !slices.Equal(g.Tuples.Slice(), want) || !slices.Equal(g.Members, want) {
			return fmt.Errorf("epoch %d: group %d tuples differ from rebuild", ep.snap.Version, g.ID)
		}
	}
	return nil
}

func postingCount(st *store.Store, c store.Column, v model.ValueCode) int {
	if bm := st.Posting(c, v); bm != nil {
		return bm.Count()
	}
	return 0
}

// TestEpochsIsolatedUnderConcurrentIngest is the isolation property for
// the race detector: one writer inserts random actions and takes a
// snapshot every few inserts while readers keep re-solving every retained
// epoch with all three solver families. Each epoch must keep returning
// byte-identical answers to the ones recorded when it was taken, and its
// store and groups must match a from-scratch build over the same action
// prefix, however far the live store has moved on.
func TestEpochsIsolatedUnderConcurrentIngest(t *testing.T) {
	const (
		epochs  = 60
		readers = 2
	)
	rng := rand.New(rand.NewSource(11))
	d, users, items, tags := carryWorld(t, rng)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		retained []*retainedEpoch
	)
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for the end before the pass, so the last pass
				// covers every epoch the writer published.
				var finished bool
				select {
				case <-done:
					finished = true
				default:
				}
				mu.Lock()
				eps := retained
				mu.Unlock()
				for _, ep := range eps {
					if err := ep.verify(); err != nil {
						errs <- err
						return
					}
				}
				if finished {
					return
				}
			}
		}()
	}

	actions := slices.Clone(d.Actions)
	for e := 0; e < epochs; e++ {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			a := model.TaggingAction{
				User: users[rng.Intn(len(users))],
				Item: items[rng.Intn(len(items))],
				Tags: []model.TagID{tags[rng.Intn(len(tags))]},
			}
			if err := m.Insert(a); err != nil {
				t.Fatal(err)
			}
			actions = append(actions, a)
		}
		if rng.Intn(4) == 0 {
			if _, err := m.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveFamilies(snap.Engine)
		if err != nil {
			t.Fatal(err)
		}
		prefix := *d
		prefix.Actions = slices.Clip(actions)
		ref, err := store.New(&prefix)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		retained = append(retained, &retainedEpoch{snap: snap, want: want, ref: ref})
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSnapshotSharesCleanState pins what one insert costs the next epoch
// on the paper-scale corpus: the snapshot copies only the group and the
// posting lists the insert touched, shares every other group and posting
// list with the previous epoch by pointer, and so allocates a small
// fraction of the corpus.
func TestSnapshotSharesCleanState(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus is slow under -short")
	}
	world, err := datagen.Generate(datagen.Default())
	if err != nil {
		t.Fatal(err)
	}
	ds := world.Dataset
	m, err := New(ds, 5, signature.FrequencyOfSize(ds.Vocab.Size()))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Repeat an action of group 0's first tuple, so the insert grows one
	// active group.
	t0 := prev.Groups[0].Members[0]
	a := model.TaggingAction{User: prev.Store.TupleUser(t0), Item: prev.Store.TupleItem(t0), Tags: prev.Store.TupleTags(t0)}
	if err := m.Insert(a); err != nil {
		t.Fatal(err)
	}
	touched := maps.Clone(m.dirtySnap)
	if len(touched) != 1 || !touched[0] {
		t.Fatalf("insert touched groups %v, want just group 0", touched)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, err := m.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("snapshot after one insert allocated %d bytes", bytes)
	if bytes >= 1<<20 {
		t.Errorf("snapshot after one insert allocated %d bytes, want under 1 MB", bytes)
	}

	if len(next.Groups) != len(prev.Groups) {
		t.Fatalf("groups %d -> %d", len(prev.Groups), len(next.Groups))
	}
	for id, g := range next.Groups {
		if touched[id] {
			if g == prev.Groups[id] || g == m.active[id] || g.Size() != prev.Groups[id].Size()+1 {
				t.Errorf("touched group %d was not refrozen with the new tuple", id)
			}
		} else if g != prev.Groups[id] {
			t.Errorf("clean group %d was copied instead of shared", id)
		}
	}

	newTuple := next.Store.Len() - 1
	fresh := 0
	for _, c := range next.Store.Columns() {
		for v := model.ValueCode(0); int(v) <= next.Store.ColumnAttr(c).Cardinality(); v++ {
			got, old := next.Store.Posting(c, v), prev.Store.Posting(c, v)
			if got != nil && got == m.Store().Posting(c, v) {
				t.Fatalf("posting %v=%d: snapshot holds the live bitmap", c, v)
			}
			if v != next.Store.Value(newTuple, c) {
				if got != old {
					t.Errorf("untouched posting %v=%d was copied instead of shared", c, v)
				}
				continue
			}
			fresh++
			if got == old || got.Count() != old.Count()+1 {
				t.Errorf("touched posting %v=%d was not refrozen with the new tuple", c, v)
			}
		}
	}
	if fresh != len(next.Store.Columns()) {
		t.Fatalf("%d postings refrozen, want one per column (%d)", fresh, len(next.Store.Columns()))
	}
}
