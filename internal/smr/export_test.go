package smr

import "sort"

// liveLearners reports how many slot learners the log host holds. Call
// it only after Stop: the map belongs to the host's goroutine.
func (l *Log) liveLearners() int { return len(l.learners) }

// liveAcceptors reports how many slot acceptors the replica holds. Call
// it only after Stop: the map belongs to the replica's goroutine.
func (r *Replica) liveAcceptors() int {
	n := 0
	for _, s := range r.slots {
		if s.acc != nil {
			n++
		}
	}
	return n
}

// heldSlots returns, in order, every slot the replica holds state for,
// live or decided. Call it only after Stop.
func (r *Replica) heldSlots() []int {
	var slots []int
	for n := range r.slots {
		slots = append(slots, n)
	}
	sort.Ints(slots)
	return slots
}
