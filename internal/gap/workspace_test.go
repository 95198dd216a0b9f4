package gap

import "testing"

// TestShedCapsBuilderArrays: a workspace keeps builder arrays within
// keepRuns runs whatever its later solves use, and sheds all of its
// state at the first release past that. The arrays hold runs, so each
// compile lists runs items of alternating profit, none of which folds
// into the one before it.
func TestShedCapsBuilderArrays(t *testing.T) {
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
	compile(keepRuns / 2) // a path-loss tour
	w.shed()
	grown := cap(w.b.c.First)
	if grown < keepRuns/2 || grown > keepRuns {
		t.Fatalf("%d runs grew arrays of cap %d, want within [%d, %d]", keepRuns/2, grown, keepRuns/2, keepRuns)
	}
	compile(100) // an interval
	w.shed()
	if c := cap(w.b.c.First); c != grown {
		t.Fatalf("a workspace within keepRuns went from cap %d to %d", grown, c)
	}
	compile(2 * keepRuns)
	w.shed()
	if c := cap(w.b.c.First); c != 0 {
		t.Fatalf("a workspace past keepRuns kept arrays of cap %d", c)
	}
}
