// Package mac models contention during the online protocol's registration
// phase. The paper assumes every in-range sensor's Ack reaches the sink
// before the registration timer expires; in a real CSMA network
// simultaneous Acks collide. This package provides the slotted
// carrier-sense contention model (CSMAWindow, and CSMAWindowLossy over an
// erasure channel) the online runner draws registrations from, to quantify
// how sensitive the distributed framework is to that assumption (it is the
// paper's only unmodelled MAC interaction — data slots are collision-free
// by construction of the schedule).
package mac

import (
	"errors"
	"fmt"
	"math/rand"
)

// CSMAWindow simulates carrier-sense contention with retry over a window
// of w slots: every contender draws a backoff slot; the window is scanned
// in order, and in each slot the contenders whose backoff expired transmit.
// A sole transmitter succeeds and leaves; colliders detect the collision
// and re-draw a backoff uniformly in the remaining window (lost only when
// no slots remain). Retrying lifts CSMA above one-shot slotted ALOHA, whose
// per-contender success probability is (1 − 1/w)^(n−1), when the window is
// generous (sparse regime); in a saturated window the retries crowd the
// remaining slots and can do worse — the classic congestion-collapse
// behaviour.
func CSMAWindow(n, w int, rng *rand.Rand) ([]bool, error) {
	if err := check(n, w, rng); err != nil {
		return nil, err
	}
	backoff := make([]int, n)
	for i := range backoff {
		backoff[i] = rng.Intn(w)
	}
	ok := make([]bool, n)
	lost := make([]bool, n)
	for slot := 0; slot < w; slot++ {
		var txs []int
		for i, b := range backoff {
			if b == slot && !ok[i] && !lost[i] {
				txs = append(txs, i)
			}
		}
		switch {
		case len(txs) == 1:
			ok[txs[0]] = true
		case len(txs) > 1:
			for _, i := range txs {
				if slot+1 >= w {
					lost[i] = true
					continue
				}
				backoff[i] = slot + 1 + rng.Intn(w-slot-1)
			}
		}
	}
	return ok, nil
}

// CSMAWindowLossy is CSMAWindow over an erasure channel: even a
// collision-free transmission is lost when lossy(contender, attempt)
// reports true, in which case the contender behaves like a collider —
// it detects the missing acknowledgement and re-draws a backoff in the
// remaining window (lost for good when no slots remain). attempt counts
// the contender's transmissions so far (0 for the first), letting a
// deterministic fault plan key each erasure independently. A nil lossy
// degrades to plain CSMAWindow.
func CSMAWindowLossy(n, w int, rng *rand.Rand, lossy func(contender, attempt int) bool) ([]bool, error) {
	if lossy == nil {
		return CSMAWindow(n, w, rng)
	}
	if err := check(n, w, rng); err != nil {
		return nil, err
	}
	backoff := make([]int, n)
	attempts := make([]int, n)
	for i := range backoff {
		backoff[i] = rng.Intn(w)
	}
	ok := make([]bool, n)
	lost := make([]bool, n)
	for slot := 0; slot < w; slot++ {
		var txs []int
		for i, b := range backoff {
			if b == slot && !ok[i] && !lost[i] {
				txs = append(txs, i)
			}
		}
		for _, i := range txs {
			delivered := len(txs) == 1 && !lossy(i, attempts[i])
			attempts[i]++
			if delivered {
				ok[i] = true
				continue
			}
			if slot+1 >= w {
				lost[i] = true
				continue
			}
			backoff[i] = slot + 1 + rng.Intn(w-slot-1)
		}
	}
	return ok, nil
}

func check(n, w int, rng *rand.Rand) error {
	if n < 0 {
		return fmt.Errorf("mac: negative contender count %d", n)
	}
	if w <= 0 {
		return fmt.Errorf("mac: window must be positive, got %d", w)
	}
	if rng == nil {
		return errors.New("mac: nil rng")
	}
	return nil
}
