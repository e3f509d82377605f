package sta

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

func TestBatchTimerMatchesAnalyze(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	aged := lib(t, aging.WorstCase(10))
	nl := chain(4)
	ctx := context.Background()

	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*liberty.Library{fresh, aged} {
		want, err := Analyze(ctx, nl, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := bt.CP(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		// The batch timer re-binds a precompiled topology; it must be
		// bit-identical to a standalone analysis, not merely close.
		if got != want.CP {
			t.Errorf("%s: batch CP %v != Analyze CP %v", l.Scenario, got, want.CP)
		}
	}
}

func TestBatchTimerConcurrent(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	aged := lib(t, aging.WorstCase(10))
	nl := chain(3)
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bt.CP(ctx, aged)
	if err != nil {
		t.Fatal(err)
	}
	// One timer, many goroutines, alternating libraries: every call must
	// reproduce its library's CP exactly (bindings and states are
	// per-call; the shared topology is immutable).
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				cp, err := bt.CP(ctx, aged)
				if err != nil {
					errs <- err
					return
				}
				if cp != ref {
					t.Errorf("concurrent CP %v != %v", cp, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatchTimerMissingCell: a library missing a cell the topology was
// compiled against cannot be bound; CP must fail cleanly.
func TestBatchTimerMissingCell(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	nl := chain(2)
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	broken := &liberty.Library{
		Name:     "broken",
		Scenario: fresh.Scenario,
		Vdd:      fresh.Vdd,
		Slews:    fresh.Slews,
		Loads:    fresh.Loads,
		Cells:    map[string]*liberty.CellTiming{},
	}
	if _, err := bt.CP(ctx, broken); err == nil {
		t.Error("empty library produced a CP")
	}
}

// permuted returns a copy of l in which cell lists its input pins in
// reverse order: the same timing tables under a different footprint.
func permuted(l *liberty.Library, cell string) *liberty.Library {
	p := *l
	p.Name = l.Name + "_permuted"
	p.Cells = maps.Clone(l.Cells)
	ct := *l.Cells[cell]
	ct.Inputs = slices.Clone(ct.Inputs)
	slices.Reverse(ct.Inputs)
	p.Cells[cell] = &ct
	return &p
}

// TestFootprintMismatchRecompiles: a library whose cell lists its inputs
// in another order than the compiled topology cannot be bound to it.
// BatchTimer.CP under that library, and Analyzer.Swap onto that cell,
// must compile a topology of their own, match the reference bit for bit,
// and count each fallback once in sta.incremental.fallbacks.
func TestFootprintMismatchRecompiles(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	fallbacks := func() int64 { return reg.Counter("sta.incremental.fallbacks").Value() }
	fresh := lib(t, aging.Fresh())
	nl := randNetlist(rand.New(rand.NewSource(9)), 80)

	// Permute the cell of one multi-input instance, and pick an instance
	// of another drive of the same base to swap onto it.
	var cell, inst string
	for _, in := range nl.Insts {
		ct := fresh.MustCell(in.Cell)
		if len(ct.Inputs) < 2 || ct.Seq {
			continue
		}
		for _, other := range nl.Insts {
			if other.Cell != in.Cell && fresh.MustCell(other.Cell).Base == ct.Base {
				cell, inst = in.Cell, other.Name
			}
		}
		if cell != "" {
			break
		}
	}
	if cell == "" {
		t.Fatal("netlist has no two drives of one multi-input base")
	}
	perm := permuted(fresh, cell)

	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range []*liberty.Library{perm, fresh, perm} {
		got, err := bt.CP(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analyzeReference(nl, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.CP {
			t.Fatalf("CP under %s: %v != reference %v", l.Name, got, want.CP)
		}
		if n, wantN := fallbacks(), int64(i/2+1); n != wantN {
			t.Fatalf("after CP %d under %s: fallbacks = %d, want %d", i, l.Name, n, wantN)
		}
	}

	a, err := NewAnalyzer(ctx, nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	undo, err := a.Swap(ctx, CellSwap{Inst: inst, Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 3 {
		t.Fatalf("after swap onto %s: fallbacks = %d, want 3", cell, n)
	}
	want, err := analyzeReference(nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after swap onto "+cell, a.Result(), want)
	if _, err := a.Swap(ctx, undo...); err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 4 {
		t.Fatalf("after undo: fallbacks = %d, want 4", n)
	}
	want, err = analyzeReference(nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after undo", a.Result(), want)
}
