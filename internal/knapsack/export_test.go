package knapsack

import "fmt"

// DenseDP exposes the dense reference kernel to the external tests.
var DenseDP = denseDP

// RowsError checks the rows DPFlat kept on its last call, of capacity
// capU: one row before each run of equal candidates, its weights and
// values strictly increasing, its weights at most capQ, its first
// breakpoint at or below its dead weight (or at 0) and its second above
// it. It returns nil after a call that built no rows.
func (a *Arena) RowsError(capU int) error {
	if len(a.idx) == 0 {
		return nil
	}
	nr := len(a.rs) - 1
	sumQ := a.pre[nr]
	capQ := min(capU, sumQ)
	if len(a.boff) != nr+1 {
		return fmt.Errorf("%d row offsets for %d runs", len(a.boff), nr)
	}
	for q := 0; q < nr; q++ {
		bw, bv := a.bw[a.boff[q]:a.boff[q+1]], a.bv[a.boff[q]:a.boff[q+1]]
		dead := a.pre[q] - (sumQ - capQ)
		switch {
		case len(bw) == 0:
			return fmt.Errorf("row %d is empty", q)
		case bw[0] > max(dead, 0):
			return fmt.Errorf("row %d starts at weight %d, above its dead weight %d", q, bw[0], dead)
		case len(bw) > 1 && bw[1] <= dead:
			return fmt.Errorf("row %d keeps weight %d at or below its dead weight %d", q, bw[1], dead)
		case bw[len(bw)-1] > capQ:
			return fmt.Errorf("row %d reaches weight %d beyond capQ %d", q, bw[len(bw)-1], capQ)
		}
		for k := 1; k < len(bw); k++ {
			if bw[k] <= bw[k-1] || !(bv[k] > bv[k-1]) {
				return fmt.Errorf("row %d: breakpoint %d (%d, %v) does not rise from (%d, %v)", q, k, bw[k], bv[k], bw[k-1], bv[k-1])
			}
		}
	}
	return nil
}
