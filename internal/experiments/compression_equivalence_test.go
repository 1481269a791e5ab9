package experiments

import (
	"context"

	"reflect"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/store"
)

// compressedTwin rebuilds the setup's engine over a store rebuilt from the
// same dataset and a deep-copied group universe, with the
// container-compressed bitmap layout forced on every posting list and
// tuple set. Signatures, LDA state and group IDs
// are shared — only the bitmap representation differs, which is exactly
// what the equivalence assertions isolate.
func compressedTwin(t *testing.T, st *Setup) *Setup {
	t.Helper()
	stC, err := store.New(st.World.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	stC.ForceCompression(true)
	gsC := make([]*groups.Group, len(st.Groups))
	for i, g := range st.Groups {
		gsC[i] = &groups.Group{
			ID:      g.ID,
			Pred:    g.Pred,
			Tuples:  g.Tuples.Clone().ToCompressed(),
			Members: append([]int(nil), g.Members...),
		}
	}
	engC, err := core.NewEngine(stC, gsC, st.Sigs)
	if err != nil {
		t.Fatal(err)
	}
	return &Setup{
		Config: st.Config,
		World:  st.World,
		Store:  stC,
		Groups: gsC,
		Sigs:   st.Sigs,
		LDA:    st.LDA,
		Engine: engC,
	}
}

// assertSameResult demands byte-identical solver outcomes: feasibility,
// argmax group IDs and descriptions, bit-for-bit objective, support, and
// the examined-candidate count. The outcome fields are shared with the
// pruning property harness via assertByteIdentical; this wrapper adds the
// checks that need Setups (descriptions) or only hold between runs of the
// same pruning mode (examined counts).
func assertSameResult(t *testing.T, label string, st, stC *Setup, want, got core.Result) {
	t.Helper()
	assertByteIdentical(t, label, want, got)
	if got.CandidatesExamined != want.CandidatesExamined {
		t.Fatalf("%s: examined %d with compression, %d without",
			label, got.CandidatesExamined, want.CandidatesExamined)
	}
	if !want.Found {
		return
	}
	if !reflect.DeepEqual(got.Describe(stC.Store), want.Describe(st.Store)) {
		t.Fatalf("%s: descriptions diverge: %v vs %v",
			label, got.Describe(stC.Store), want.Describe(st.Store))
	}
}

// TestSolverEquivalenceCompressionForced is the corpus-level acceptance
// test for the compressed layout: on the experiments corpus, Exact (serial
// and parallel), DV-FDP and SM-LSH must produce byte-identical outputs
// with compression forced on versus the dense baseline, across all six
// paper problems.
func TestSolverEquivalenceCompressionForced(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow under -short")
	}
	st := setup(t)
	stC := compressedTwin(t, st)
	p := PaperParams()

	ex, err := st.ExactEngine()
	if err != nil {
		t.Fatal(err)
	}
	exC, err := stC.ExactEngine()
	if err != nil {
		t.Fatal(err)
	}

	for id := 1; id <= 6; id++ {
		spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
		if err != nil {
			t.Fatal(err)
		}

		for _, parallel := range []bool{false, true} {
			want, err := ex.Exact(context.Background(), spec, core.ExactOptions{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			got, err := exC.Exact(context.Background(), spec, core.ExactOptions{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, spec.Name+"/Exact", st, stC, want, got)
		}

		// Solve dispatches problems 1-3 to SM-LSH and 4-6 to DV-FDP, so
		// the sweep exercises both approximate families.
		opts := core.SolveOptions{
			LSH: core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: 1, Mode: core.Fold},
			FDP: core.FDPOptions{Mode: core.Fold},
		}
		want, err := st.Engine.Solve(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stC.Engine.Solve(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, spec.Name+"/"+want.Algorithm, st, stC, want, got)
	}
}
