package gap_test

import (
	"context"
	"fmt"

	"mobisink/internal/gap"
)

// Two capacitated bins (sensors) compete for three items (time slots); the
// local-ratio sweep assigns each item to the last bin that claimed it.
// Unit weights make the exact DP oracle at quantum 1 exact. The first bin
// lists its first two items, of one profit and weight, in one Run and
// its third with Add; the second bin lists its two apart with Add. A
// pooled Workspace holds the builder, the pass scratch and the item →
// bin array; the profit is read off the assignment.
func ExampleBuilder() {
	ws := gap.GetWorkspace()
	defer ws.Release()
	b := ws.Builder()
	b.Reset(3, nil, 1, 0)
	b.Bin(2)
	b.Run(0, 2, 9.5, 1)
	b.Add(2, 1, 1)
	b.Bin(1)
	b.Add(0, 2, 1)
	b.Add(2, 8, 1)
	c, _ := b.Compiled()
	itemBin := ws.ItemBin(c.NumItems)
	_ = c.SolveInto(context.Background(), ws.Scratch(), itemBin)
	profit := 0.0
	for bin := range c.Cap {
		for k := c.Off[bin]; k < c.Off[bin+1]; k++ {
			for j := c.First[k]; j < c.First[k]+c.Count[k]; j++ {
				if itemBin[j] == int32(bin) {
					profit += c.Profit[k]
				}
			}
		}
	}
	fmt.Printf("profit=%.0f items→bins=%v\n", profit, itemBin)
	// Output: profit=27 items→bins=[0 0 1]
}
