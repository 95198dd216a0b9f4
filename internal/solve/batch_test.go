package solve

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mobisink/internal/core"
)

func TestBatchMatchesIndividualSolves(t *testing.T) {
	insts := []*core.Instance{
		paperInstance(t, 20, 1, 5, 1),
		paperInstance(t, 30, 2, 5, 1),
		paperInstance(t, 25, 3, 5, 1),
	}
	items, err := Batch(context.Background(), "Offline_Appro", insts, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(insts) {
		t.Fatalf("got %d items for %d instances", len(items), len(insts))
	}
	for i, inst := range insts {
		if items[i].Err != nil {
			t.Fatalf("instance %d failed: %v", i, items[i].Err)
		}
		s, err := New("Offline_Appro", Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Alloc.Data != want.Data || !reflect.DeepEqual(items[i].Alloc.SlotOwner, want.SlotOwner) {
			t.Fatalf("instance %d: batch Data %v != individual %v", i, items[i].Alloc.Data, want.Data)
		}
		if items[i].Elapsed <= 0 {
			t.Fatalf("instance %d: non-positive Elapsed %v", i, items[i].Elapsed)
		}
	}
}

func TestBatchPerItemErrors(t *testing.T) {
	insts := []*core.Instance{
		paperInstance(t, 20, 1, 5, 1),
		nil,
		paperInstance(t, 20, 2, 5, 1),
	}
	items, err := Batch(context.Background(), "Offline_Appro", insts, Options{}, 2)
	if err != nil {
		t.Fatalf("batch-level error for a per-item failure: %v", err)
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("healthy siblings failed: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil || !strings.Contains(items[1].Err.Error(), "nil instance") {
		t.Fatalf("nil instance error missing, got %v", items[1].Err)
	}
	if items[1].Alloc != nil {
		t.Fatal("failed item carries an allocation")
	}
}

func TestBatchUnknownAlgorithm(t *testing.T) {
	if _, err := Batch(context.Background(), "No_Such_Solver", nil, Options{}, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBatchEmpty(t *testing.T) {
	items, err := Batch(context.Background(), "Offline_Appro", nil, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("got %d items for an empty batch", len(items))
	}
}

func TestBatchOtherAlgorithms(t *testing.T) {
	insts := []*core.Instance{paperInstance(t, 20, 5, 5, 1)}
	for _, alg := range []string{"Offline_Greedy", "Online_Greedy"} {
		items, err := Batch(context.Background(), alg, insts, Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if items[0].Err != nil {
			t.Fatalf("%s: %v", alg, items[0].Err)
		}
	}
}

func TestBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	insts := []*core.Instance{paperInstance(t, 40, 6, 5, 1)}
	items, err := Batch(ctx, "Offline_Appro", insts, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err == nil {
		t.Fatal("canceled context did not surface in the item error")
	}
}
