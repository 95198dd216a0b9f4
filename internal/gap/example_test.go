package gap_test

import (
	"context"
	"fmt"

	"mobisink/internal/gap"
)

// Two capacitated bins (sensors) compete for three items (time slots); the
// local-ratio sweep assigns each item to the last bin that claimed it.
// Unit weights make the exact DP oracle at quantum 1 exact. The first bin
// lists its three consecutive items in one Run, the second its two
// apart with Add.
func ExampleBuilder() {
	var b gap.Builder
	b.Reset(3, nil, 1, 0)
	b.Bin(2)
	b.Run(0, []float64{10, 9, 1}, []float64{1, 1, 1}, 1)
	b.Bin(1)
	b.Add(0, 2, 1)
	b.Add(2, 8, 1)
	c, _ := b.Compiled()
	itemBin := make([]int32, c.NumItems)
	profit, _ := c.SolveInto(context.Background(), nil, itemBin)
	fmt.Printf("profit=%.0f items→bins=%v\n", profit, itemBin)
	// Output: profit=27 items→bins=[0 0 1]
}
