package knapsack_test

import (
	"context"
	"fmt"

	"mobisink/internal/knapsack"
)

// A sensor choosing transmission slots: profits are the data volumes per
// slot (bits), weights the energy costs (Joules), the capacity its budget.
func ExampleArena_BranchAndBoundFlat() {
	profit := []float64{250000, 19200, 9600, 4800} // close to the sink: fast & cheap; far: slow & expensive
	weight := []float64{0.17, 0.22, 0.30, 0.33}
	picks, bits, _ := knapsack.NewArena().BranchAndBoundFlat(context.Background(), profit, weight, 0.40)
	joules := 0.0
	for _, p := range picks {
		joules += weight[p]
	}
	fmt.Printf("picked %v, %.0f bits for %.2f J\n", picks, bits, joules)
	// Output: picked [0 1], 269200 bits for 0.39 J
}

func ExampleArena_FPTASFlat() {
	profit := []float64{60, 100, 120}
	weight := []float64{10, 20, 30}
	_, total, _ := knapsack.NewArena().FPTASFlat(context.Background(), 0.1, profit, weight, 50) // profit ≥ 90% of optimal
	fmt.Printf("%.0f\n", total)
	// Output: 220
}

// A sensor with only 300 kb of sensed data left cannot usefully occupy
// more slots, no matter its energy budget.
func ExampleArena_MaxProfitUnderFlat() {
	profit := []float64{250000, 250000, 250000}
	weight := []float64{0.17, 0.17, 0.17}
	picks, bits, _ := knapsack.NewArena().MaxProfitUnderFlat(context.Background(), profit, weight, 10 /* J */, 300000 /* bits queued */, 400)
	fmt.Printf("%d slot(s), %.0f bits\n", len(picks), bits)
	// Output: 1 slot(s), 250000 bits
}
