package fair

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/geom"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// TestWaterFillFleetDigests: on fleets whose sinks share absolute slots
// (two sinks crossing on one road, two speeds on one road, the road
// split among four sinks, and twin sinks side by side, where every
// sensor hears both at once at one rate), WaterFill keeps every sensor to one sink per
// absolute slot, so Validate accepts its allocation, and its slot owners
// and collected data hash to pinned digests, bit for bit.
func TestWaterFillFleetDigests(t *testing.T) {
	for _, c := range []struct {
		name  string
		sinks func(d *network.Deployment) error
		want  uint64
	}{
		{"crossing", func(d *network.Deployment) error {
			there, back := geom.Point{X: 0, Y: 0}, geom.Point{X: d.PathLength, Y: 0}
			d.Sinks = []network.SinkSpec{{Waypoints: []geom.Point{there, back}}, {Waypoints: []geom.Point{back, there}}}
			return nil
		}, 0xf9a15a48296f31f6},
		{"two-speeds", func(d *network.Deployment) error {
			d.Sinks = []network.SinkSpec{{Speed: 5}, {Speed: 10}}
			return nil
		}, 0x7987f6626cb92c6},
		{"split4", func(d *network.Deployment) error { return d.SplitSinks(4, nil) }, 0xbbaf3e19dac735cf},
		{"twins", func(d *network.Deployment) error {
			d.Sinks = []network.SinkSpec{{Speed: 5}, {Speed: 5}}
			return nil
		}, 0xdcb90f3c0b72f226},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := network.Generate(network.Params{N: 200, PathLength: 2000, MaxOffset: 150, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), d.PathLength/5, 0.2, rand.New(rand.NewSource(5))); err != nil {
				t.Fatal(err)
			}
			if err := c.sinks(d); err != nil {
				t.Fatal(err)
			}
			inst, err := core.BuildFleetInstance(d, radio.Paper2013(), 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			a, err := WaterFill(inst)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Validate(a); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, o := range a.SlotOwner {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(o))))
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.Data)))
			if got := h.Sum64(); got != c.want {
				t.Fatalf("digest %#x, want %#x", got, c.want)
			}
		})
	}
}
