package mac

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := CSMAWindow(-1, 8, rng); err == nil {
		t.Error("expected negative-n error")
	}
	if _, err := CSMAWindow(5, 0, rng); err == nil {
		t.Error("expected window error")
	}
	if _, err := CSMAWindow(5, 8, nil); err == nil {
		t.Error("expected rng error")
	}
}

// registered is the mean number of CSMA registrations of n contenders in
// a window of w slots over the given trials.
func registered(t *testing.T, n, w, trials int, rng *rand.Rand) float64 {
	t.Helper()
	total := 0
	for range trials {
		ok, err := CSMAWindow(n, w, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ok {
			if s {
				total++
			}
		}
	}
	return float64(total) / float64(trials)
}

func TestCSMABeatsAlohaWhenSparse(t *testing.T) {
	// With a generous window, retrying colliders must register more
	// contenders than one-shot slotted ALOHA, where each of the n
	// contenders succeeds with probability (1 − 1/w)^(n−1).
	const n, w = 8, 64
	csma := registered(t, n, w, 5000, rand.New(rand.NewSource(3)))
	aloha := n * math.Pow(1-1.0/w, n-1)
	if csma <= aloha {
		t.Errorf("sparse regime: CSMA %v not above ALOHA %v", csma, aloha)
	}
}

func TestCSMAWindowBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// n = 0: empty mask.
	ok, err := CSMAWindow(0, 8, rng)
	if err != nil || len(ok) != 0 {
		t.Fatalf("empty contention: %v %v", ok, err)
	}
	// One contender always succeeds.
	for i := 0; i < 50; i++ {
		ok, _ := CSMAWindow(1, 4, rng)
		if !ok[0] {
			t.Fatal("single contender must register")
		}
	}
	// Huge window: nearly everyone succeeds.
	succ := 0
	const n = 10
	for i := 0; i < 200; i++ {
		ok, _ := CSMAWindow(n, 4096, rng)
		for _, s := range ok {
			if s {
				succ++
			}
		}
	}
	if frac := float64(succ) / (200 * n); frac < 0.98 {
		t.Errorf("large-window success fraction %v", frac)
	}
}

func TestExpectedRegistrationsMonotone(t *testing.T) {
	small := registered(t, 12, 4, 3000, rand.New(rand.NewSource(7)))
	large := registered(t, 12, 64, 3000, rand.New(rand.NewSource(7)))
	if large <= small {
		t.Errorf("registrations must grow with window: %v vs %v", small, large)
	}
	if large > 12 {
		t.Errorf("cannot register more than n: %v", large)
	}
}

// Satellite coverage: collision/backoff edge cases.

// All Acks collide in every slot: with a single-slot window and multiple
// contenders, everyone transmits in slot 0, collides, and has no
// remaining slots to retry into — the whole interval is lost.
func TestCSMAAllAcksCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 8} {
		ok, err := CSMAWindow(n, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range ok {
			if s {
				t.Errorf("n=%d: contender %d succeeded in an all-collide window", n, i)
			}
		}
	}
}

// Single-sensor contention: one contender never collides, so it succeeds
// for every window size and every seed.
func TestCSMASingleSensor(t *testing.T) {
	for _, w := range []int{1, 2, 16, 256} {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ok, err := CSMAWindow(1, w, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(ok) != 1 || !ok[0] {
				t.Fatalf("w=%d seed=%d: lone contender failed", w, seed)
			}
		}
	}
}

// Zero-slot registration windows are rejected, not silently emptied, for
// every contention model; zero contenders in a valid window succeed
// vacuously.
func TestCSMAZeroSlotWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := CSMAWindow(3, 0, rng); err == nil {
		t.Error("CSMAWindow accepted w=0")
	}
	if _, err := CSMAWindowLossy(3, 0, rng, func(int, int) bool { return false }); err == nil {
		t.Error("CSMAWindowLossy accepted w=0")
	}
	if _, err := CSMAWindow(3, -2, rng); err == nil {
		t.Error("negative window accepted")
	}
	ok, err := CSMAWindow(0, 4, rng)
	if err != nil || len(ok) != 0 {
		t.Errorf("zero contenders: ok=%v err=%v", ok, err)
	}
}

// The lossless erasure channel matches plain CSMA exactly (same rng
// stream consumption on success paths), and a fully-lossy channel
// registers nobody.
func TestCSMAWindowLossy(t *testing.T) {
	a, err := CSMAWindowLossy(10, 32, rand.New(rand.NewSource(5)), func(int, int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	b, err := CSMAWindow(10, 32, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lossless erasure diverges from plain CSMA at %d", i)
		}
	}
	all, err := CSMAWindowLossy(10, 32, rand.New(rand.NewSource(5)), func(int, int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range all {
		if s {
			t.Errorf("contender %d succeeded on a fully-lossy channel", i)
		}
	}
	// nil lossy degrades to plain CSMA.
	c, err := CSMAWindowLossy(10, 32, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i] != b[i] {
			t.Fatalf("nil-lossy diverges from plain CSMA at %d", i)
		}
	}
	// Partial loss: attempts are per contender; an erasure on the first
	// attempt can be recovered by a retry inside the window.
	firstLoss := func(_, attempt int) bool { return attempt == 0 }
	retried, err := CSMAWindowLossy(1, 64, rand.New(rand.NewSource(5)), firstLoss)
	if err != nil {
		t.Fatal(err)
	}
	if !retried[0] {
		t.Error("first-attempt erasure not recovered by in-window retry")
	}
}
