//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// given back, so a pooled solve's allocation count pins nothing under
// -race; this gate runs in the plain `go test ./...` tier.

package solve

import (
	"context"
	"testing"

	"mobisink/internal/core"
)

// TestRegistryOfflineApproAllocs: a fresh registry Offline_Appro solve,
// the one every HTTP request and experiment trial makes, allocates no
// more than building the solver and a core.OfflineApproCtx solve each
// allocate alone: the registry adds no per-call compile.
func TestRegistryOfflineApproAllocs(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{50, 200} {
		inst := paperInstance(t, n, 42, 5, 1)
		build := testing.AllocsPerRun(20, func() {
			if _, err := New("Offline_Appro", Options{}); err != nil {
				t.Fatal(err)
			}
		})
		direct := testing.AllocsPerRun(20, func() {
			if _, err := core.OfflineApproCtx(ctx, inst, core.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		fresh := testing.AllocsPerRun(20, func() {
			s, err := New("Offline_Appro", Options{})
			if err == nil {
				_, err = s.Solve(ctx, inst)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if fresh > build+direct {
			t.Errorf("N=%d: a fresh registry solve allocates %v, solve.New %v and core.OfflineApproCtx %v", n, fresh, build, direct)
		}
	}
}
