package gap

import (
	"runtime"
	"testing"
	"time"
)

// TestShedKeepsArraysWhileUsed: a workspace keeps the builder arrays a
// large solve grew while solves keep using a quarter of them, and the
// first smaller solve sheds them once two collections passed without
// such a use; arrays within keepRuns stay whatever the count. The
// arrays hold runs, so each compile lists runs items of alternating
// profit, none of which folds into the one before it.
func TestShedKeepsArraysWhileUsed(t *testing.T) {
	var w Workspace
	compile := func(runs int) {
		t.Helper()
		b := w.Builder()
		b.Reset(runs, nil, 0, 0)
		b.Bin(float64(runs))
		for j := range runs {
			b.Add(j, float64(1+j%2), 1)
		}
		c, err := b.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.First) != runs {
			t.Fatalf("%d items compiled into %d runs", runs, len(c.First))
		}
	}
	compile(4 * keepRuns) // a whole tour
	w.shed(10)
	grown := cap(w.b.c.First)
	for _, step := range []struct {
		runs int
		now  uint32
		kept bool
	}{
		{100, 11, true},          // an interval, one collection on
		{4 * keepRuns, 12, true}, // the tour's size again
		{100, 13, true},
		{100, 14, false}, // two collections since the last large use
	} {
		compile(step.runs)
		w.shed(step.now)
		if kept := cap(w.b.c.First) == grown; kept != step.kept {
			t.Fatalf("%d runs at collection %d: kept %v, want %v", step.runs, step.now, kept, step.kept)
		}
	}
	compile(keepRuns)
	w.shed(20)
	compile(10)
	w.shed(40)
	if cap(w.b.c.First) < keepRuns {
		t.Fatalf("a workspace within keepRuns shed its arrays (cap %d)", cap(w.b.c.First))
	}
}

// TestCollectionsCounted: the sentinel's finalizer counts a collection.
func TestCollectionsCounted(t *testing.T) {
	before := collections.Load()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); collections.Load() == before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("runtime.GC ran, and no collection was counted")
		}
	}
}
