package smr

// liveLearners reports how many slot learners the log host holds. Call
// it only after Stop: the window belongs to the host's goroutine.
func (l *Log) liveLearners() int {
	n := 0
	for _, u := range l.learners.s {
		if u.lr != nil {
			n++
		}
	}
	return n
}

// liveAcceptors reports how many slot acceptors the replica holds. Call
// it only after Stop: the window belongs to the replica's goroutine.
func (r *Replica) liveAcceptors() int {
	n := 0
	for _, s := range r.slots.s {
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
	for i, s := range r.slots.s {
		if s.acc != nil || s.decided {
			slots = append(slots, r.slots.floor+i)
		}
	}
	return slots
}
