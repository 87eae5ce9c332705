package obs

import "repro/internal/peel"

// PeelTrace adapts the Collector into a peel.Options.Trace callback:
// each peeling iteration becomes one "layer" event in the trace, under
// the Collector's current phase. Layer events carry no timings — the
// peeling process is a centralized computation, and its per-iteration
// structure (paths by kind, nodes peeled, forest size) is what the
// round-cost analysis needs.
func (c *Collector) PeelTrace() func(peel.LayerEvent) {
	return func(le peel.LayerEvent) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.emit(Event{
			V:             SchemaVersion,
			Kind:          KindLayer,
			Phase:         c.phase,
			Run:           c.run,
			Round:         le.Iteration,
			PendantPaths:  le.PendantPaths,
			InternalPaths: le.InternalPaths,
			NodesPeeled:   le.NodesPeeled,
			ForestCliques: le.ForestCliques,
			Remaining:     le.Remaining,
		})
	}
}
