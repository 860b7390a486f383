package smr

// liveLearners reports how many slot learners the log host holds. Call
// it only after Stop: the map belongs to the host's goroutine.
func (l *Log) liveLearners() int { return len(l.learners) }

// liveAcceptors reports how many slot acceptors the replica holds. Call
// it only after Stop: the map belongs to the replica's goroutine.
func (r *Replica) liveAcceptors() int { return len(r.acceptors) }
