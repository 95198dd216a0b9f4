// Package viz renders text visualizations of tours: the slot-allocation
// timeline (who transmits when, at which rate tier) and per-sensor energy
// utilization bars. Pure text, meant for terminals, examples and debugging.
package viz

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"mobisink/internal/core"
)

// Timeline renders the slot ownership of an allocation as one or more
// fixed-width rows. Each column is a bucket of slots; the glyph encodes the
// best rate tier used in the bucket:
//
//	█ ≥ 100 kbps   ▓ ≥ 15 kbps   ▒ ≥ 8 kbps   ░ > 0   · idle
func Timeline(w io.Writer, inst *core.Instance, a *core.Allocation, width int) error {
	if inst == nil || a == nil {
		return errors.New("viz: nil instance or allocation")
	}
	if len(a.SlotOwner) != inst.T {
		return fmt.Errorf("viz: allocation covers %d slots, instance has %d", len(a.SlotOwner), inst.T)
	}
	if width <= 0 {
		width = 80
	}
	if width > inst.T {
		width = inst.T
	}
	perBucket := float64(inst.T) / float64(width)
	var sb strings.Builder
	used := 0
	for b := 0; b < width; b++ {
		lo := int(float64(b) * perBucket)
		hi := int(float64(b+1) * perBucket)
		if hi > inst.T {
			hi = inst.T
		}
		bestRate := 0.0
		for j := lo; j < hi; j++ {
			if i := a.SlotOwner[j]; i >= 0 {
				used++
				if r := inst.Sensors[i].RateAt(j); r > bestRate {
					bestRate = r
				}
			}
		}
		sb.WriteRune(glyph(bestRate))
	}
	occupied := 0
	for _, o := range a.SlotOwner {
		if o >= 0 {
			occupied++
		}
	}
	fmt.Fprintf(w, "tour timeline (%d slots, %d used = %.0f%%):\n", inst.T, occupied,
		100*float64(occupied)/float64(inst.T))
	fmt.Fprintf(w, "  |%s|\n", sb.String())
	fmt.Fprintf(w, "  █ ≥100kbps  ▓ ≥15kbps  ▒ ≥8kbps  ░ >0  · idle\n")
	return nil
}

func glyph(rate float64) rune {
	switch {
	case rate >= 100e3:
		return '█'
	case rate >= 15e3:
		return '▓'
	case rate >= 8e3:
		return '▒'
	case rate > 0:
		return '░'
	default:
		return '·'
	}
}

// EnergyBars renders the top `limit` sensors by energy utilization as
// horizontal bars of spent vs budget.
func EnergyBars(w io.Writer, inst *core.Instance, a *core.Allocation, limit int) error {
	if inst == nil || a == nil {
		return errors.New("viz: nil instance or allocation")
	}
	if limit <= 0 {
		limit = 10
	}
	used := inst.EnergyUsed(a)
	type row struct {
		id   int
		used float64
		frac float64
	}
	rows := make([]row, 0, len(used))
	for i, u := range used {
		if u <= 0 {
			continue
		}
		frac := 0.0
		if b := inst.Sensors[i].Budget; b > 0 {
			frac = u / b
		}
		rows = append(rows, row{i, u, frac})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].frac != rows[b].frac {
			return rows[a].frac > rows[b].frac
		}
		return rows[a].id < rows[b].id
	})
	if len(rows) > limit {
		rows = rows[:limit]
	}
	fmt.Fprintf(w, "energy utilization (top %d of %d transmitting sensors):\n", len(rows), countPositive(used))
	const barW = 30
	for _, r := range rows {
		fill := int(r.frac*barW + 0.5)
		if fill > barW {
			fill = barW
		}
		fmt.Fprintf(w, "  v%-4d [%s%s] %5.1f%%  %.3f J / %.3f J\n",
			r.id, strings.Repeat("#", fill), strings.Repeat("-", barW-fill),
			100*r.frac, r.used, inst.Sensors[r.id].Budget)
	}
	return nil
}

func countPositive(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return n
}
