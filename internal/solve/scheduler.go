package solve

import (
	"fmt"
	"sort"
	"strings"

	"mobisink/internal/online"
)

// This file extends the registry to the per-interval layer: the online
// solvers above wrap a whole simulated tour, but a real sink server
// (internal/wire, cmd/sinkd) drives the interval loop itself and only
// needs the scheduler that allocates one interval's slots. NewScheduler
// resolves the same canonical names to that inner scheduler, so the wire
// transport and the in-process runner are guaranteed to dispatch to
// identical scheduling code.

// schedulerFactories maps lowercase canonical names to per-interval
// scheduler constructors. Keys mirror the Online_* solver registrations.
var schedulerFactories = map[string]func(Options) online.Scheduler{
	"online_appro":      func(o Options) online.Scheduler { return &online.Appro{Opts: o.Core} },
	"online_maxmatch":   func(o Options) online.Scheduler { return &online.MaxMatch{} },
	"online_greedy":     func(o Options) online.Scheduler { return &online.Greedy{} },
	"online_sequential": func(o Options) online.Scheduler { return &online.Sequential{Opts: o.Core} },
}

// NewScheduler builds the per-interval online scheduler behind the named
// algorithm. Lookup is case-insensitive and accepts both the canonical
// name ("Online_Appro") and the bare scheduler name ("Appro").
func NewScheduler(name string, opts Options) (online.Scheduler, error) {
	key := strings.ToLower(name)
	if !strings.HasPrefix(key, "online_") {
		key = "online_" + key
	}
	f, ok := schedulerFactories[key]
	if !ok {
		return nil, fmt.Errorf("solve: unknown online scheduler %q (have %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
	return f(opts), nil
}

// SchedulerNames returns the canonical names of the per-interval
// schedulers, sorted.
func SchedulerNames() []string {
	names := make([]string, 0, len(schedulerFactories))
	for k := range schedulerFactories {
		s, err := NewScheduler(k, Options{})
		if err != nil {
			continue
		}
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}
