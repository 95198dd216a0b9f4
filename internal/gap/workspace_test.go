package gap

import (
	"runtime"
	"testing"
	"time"
)

// TestShedKeepsArraysWhileUsed: a workspace keeps the builder arrays a
// large solve grew while solves keep using a quarter of them, and the
// first smaller solve sheds them once two collections passed without
// such a use; arrays within keepEntries stay whatever the count.
func TestShedKeepsArraysWhileUsed(t *testing.T) {
	var w Workspace
	compile := func(entries int) {
		t.Helper()
		b := w.Builder()
		b.Reset(entries, nil, 0, 0)
		b.Bin(float64(entries))
		b.Run(0, entries, 1, 1)
		if _, err := b.Compiled(); err != nil {
			t.Fatal(err)
		}
	}
	compile(4 * keepEntries) // a whole tour
	w.shed(10)
	grown := cap(w.b.c.Item)
	for _, step := range []struct {
		entries int
		now     uint32
		kept    bool
	}{
		{100, 11, true},             // an interval, one collection on
		{4 * keepEntries, 12, true}, // the tour's size again
		{100, 13, true},
		{100, 14, false}, // two collections since the last large use
	} {
		compile(step.entries)
		w.shed(step.now)
		if kept := cap(w.b.c.Item) == grown; kept != step.kept {
			t.Fatalf("%d entries at collection %d: kept %v, want %v", step.entries, step.now, kept, step.kept)
		}
	}
	compile(keepEntries)
	w.shed(20)
	compile(10)
	w.shed(40)
	if cap(w.b.c.Item) < keepEntries {
		t.Fatalf("a workspace within keepEntries shed its arrays (cap %d)", cap(w.b.c.Item))
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
