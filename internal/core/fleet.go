package core

import (
	"errors"
	"fmt"

	"mobisink/internal/geom"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// BuildFleetInstance derives the joint slot-allocation problem for one
// concurrent tour of the deployment's sink fleet: sink k tours its own
// path at its own speed, and the instance's global slot space lays the
// per-sink tours out sink-major — global slot Sinks[k].Offset+a is sink
// k's slot during absolute time slot a. Each sensor gets one visibility
// window per sink it can hear; a sensor may serve at most one sink per
// absolute slot (the cross-sink constraint the solvers enforce via
// conflict groups).
//
// Sinks with a zero Speed use defaultSpeed. Legacy single-sink
// deployments build a K=1 instance whose solve results are bit-identical
// to BuildInstance on the same inputs (see TestFleetK1BitParity); the
// instances differ only in the Sinks metadata being populated.
func BuildFleetInstance(dep *network.Deployment, model radio.Model, defaultSpeed, slotLen float64) (*Instance, error) {
	if dep == nil {
		return nil, errors.New("core: nil deployment")
	}
	if err := dep.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, errors.New("core: nil radio model")
	}
	specs := dep.SinkSpecs()
	r := model.Range()
	trajs := make([]*geom.Trajectory, len(specs))
	sinks := make([]SinkInfo, len(specs))
	total := 0
	for k, sp := range specs {
		path, err := dep.SinkPath(k)
		if err != nil {
			return nil, err
		}
		speed := sp.Speed
		if speed == 0 {
			speed = defaultSpeed
		}
		tr, err := geom.NewTrajectory(path, speed, slotLen)
		if err != nil {
			return nil, fmt.Errorf("core: sink %d: %w", k, err)
		}
		trajs[k] = tr
		sinks[k] = SinkInfo{Offset: total, T: tr.SlotCount, Traj: tr}
		total += tr.SlotCount
	}
	inst := &Instance{
		T:     total,
		Tau:   slotLen,
		Gamma: trajs[0].Gamma(r),
		Range: r,
		Traj:  trajs[0],
		Sinks: sinks,
	}
	inst.Sensors = sensorSlots(dep, model, sinks)
	return inst, nil
}
