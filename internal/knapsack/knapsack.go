// Package knapsack holds the 0/1 knapsack kernels that are the inner
// oracle of the local-ratio GAP algorithm (paper §IV): any β-approximation
// for knapsack yields a 1/(1+β)-approximation for the data collection
// maximization problem. Every kernel is a method of an Arena and runs over
// parallel candidate arrays:
//
//   - DPRuns: exact dynamic program over quantized weights, on runs of
//     equal candidates, each row kept as the breakpoints of its step
//     function (Nemhauser–Ullmann lists): monotone rounding makes a run's
//     rows a closed form in the row before it, so the first run's row is
//     written directly, no row is built for the last, and the traceback
//     takes each run's first items in one scan. It returns how many of
//     each run's items it takes; DPFlat is its per-candidate adapter,
//     which cuts candidate arrays into runs and lists the picks;
//   - FPTASFlat: Lawler-style profit-scaling dynamic program with
//     profit ≥ (1−ε)·OPT, i.e. β = 1/(1−ε) ≈ 1+ε, matching the paper's
//     analysis (Thm 2 uses β = 1+ε ⇒ overall ratio 1/(2+ε));
//   - BranchAndBoundFlat: exact (β = 1) depth-first search with a
//     fractional relaxation bound, fast on the small per-sensor instances
//     that arise here (|A(v)| ≤ 2Γ items);
//   - MaxProfitUnderFlat: the doubly constrained knapsack of a sensor with
//     a finite data queue (profit capped as well as weight).
//
// Candidates with non-positive profit or weight exceeding the capacity are
// never selected; zero-weight positive-profit candidates always are. The
// float kernels compare weights with capacities by Fits, the one
// feasibility rule, and so do the validators that check packings
// (core.Instance.Validate and online's interval ledger).
package knapsack

import "math"

// Fits is the feasibility rule: a total weight fits a capacity when it
// exceeds it by at most 1e-9. A float sum of weights that fill a capacity
// exactly can land an ulp above it (8.4 + 5.7 = 14.100000000000001 >
// 14.1), so a rule with no slack refuses an exact fit. The kernels pack,
// and the validators accept, under this one rule.
func Fits(weight, capacity float64) bool { return weight <= limit(capacity) }

// FitCount returns how many items of one weight, up to upTo, fit a
// capacity together: it adds the weight while the running sum Fits, so
// it counts by the same float sum a validator forms over the packed
// items. The fixed-power matchings cap each sensor's slots with it.
func FitCount(weight, capacity float64, upTo int) int {
	n, sum := 0, 0.0
	for n < upTo {
		if sum += weight; !Fits(sum, capacity) {
			break
		}
		n++
	}
	return n
}

// limit is the largest total weight that Fits capacity; a kernel that
// tracks a residual starts it here.
func limit(capacity float64) float64 { return capacity + 1e-9 }

// QuantizeWeight is DPFlat's rounding of a weight: up to whole quanta, so
// every packing of the rounded weights is feasible for the real ones. The
// 1e-9 guard keeps a weight that is a multiple of the quantum up to float
// noise from rounding up a whole quantum. Values beyond int32 clamp — a
// DP table that size could never be allocated anyway.
func QuantizeWeight(w, quantum float64) int32 {
	return int32(min(math.Ceil(w/quantum-1e-9), math.MaxInt32))
}

// QuantizeCapacity is DPFlat's rounding of a capacity: the largest
// weight that Fits it, down to whole quanta — the other half of
// QuantizeWeight's feasibility argument. Rounding the Fits limit, not the
// capacity itself, keeps a capacity that is a whole number of quanta up
// to float noise (0.6/0.2 = 2.9999999999999996) from losing a quantum, so
// DPFlat packs what Fits accepts.
func QuantizeCapacity(capacity, quantum float64) int32 {
	return int32(min(math.Floor(limit(capacity)/quantum), math.MaxInt32))
}
