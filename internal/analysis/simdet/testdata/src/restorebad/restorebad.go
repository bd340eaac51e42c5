// Package restorebad is the simdet fixture for schedule-rebuild-shaped
// code. Code that rebuilds a schedule from deserialized scheduling points
// must reproduce the exact schedule the original compile produced: if it
// keeps its points in a map and ranges it while appending assignments (or
// while picking each slot's winner), Go's randomized iteration order leaks
// into the rebuilt tables and the rebuilt run is no longer bit-identical
// to the compiled one. The allowed shapes below keep points in a slice or
// sort the keys first.
package restorebad

import "sort"

type point struct {
	slot int
	cost float64
}

type schedule struct {
	assigns []point
	bySlot  map[int]point
	total   float64
}

// restoreFromMap is the bug this fixture pins: ranging a deserialized
// points map while appending to the schedule under construction.
func restoreFromMap(points map[int]point) *schedule {
	s := &schedule{bySlot: map[int]point{}}
	for _, pt := range points {
		s.assigns = append(s.assigns, pt) // want `append to s inside map iteration`
	}
	return s
}

// restoreWinners is last-writer-wins in random order: whichever map entry
// is visited last claims the slot.
func restoreWinners(points map[int]point, winner *point) {
	for _, pt := range points {
		*winner = pt // want `assignment to outer state inside map iteration`
	}
}

// restoreCost accumulates floats in iteration order; rounding makes the
// total depend on the visit sequence.
func restoreCost(s *schedule, points map[int]point) {
	for _, pt := range points {
		s.total += pt.cost // want `float accumulation into outer state inside map iteration`
	}
}

// restoreSorted is the deterministic shape: collect keys, sort, then walk
// in fixed order. The analyzer recognizes collect-then-sort natively — no
// ignore needed: the sort.Ints below fixes the order before it is observed.
func restoreSorted(points map[int]point) *schedule {
	keys := make([]int, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	s := &schedule{bySlot: map[int]point{}}
	for _, k := range keys {
		s.assigns = append(s.assigns, points[k])
	}
	return s
}

// restoreFromSlice is the real restore's shape: artifact points live in a
// slice whose order was fixed at serialization time. Allowed.
func restoreFromSlice(points []point) *schedule {
	s := &schedule{bySlot: map[int]point{}}
	for _, pt := range points {
		s.assigns = append(s.assigns, pt)
	}
	return s
}

// restorePerKey copies a map per-key: each slot is written exactly once,
// so iteration order cannot change the result. Allowed.
func restorePerKey(points map[int]point) *schedule {
	s := &schedule{bySlot: make(map[int]point, len(points))}
	for k, pt := range points {
		s.bySlot[k] = pt
	}
	return s
}

// restoreMarks stores a constant under a derived (non-loop-key) index:
// every iteration writes the same value, so order cannot be observed.
// Allowed without an ignore.
func restoreMarks(points map[int]point, used map[int]bool) {
	for _, pt := range points {
		used[pt.slot] = true
	}
}
