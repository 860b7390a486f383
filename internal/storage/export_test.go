package storage

import (
	"repro/internal/auth"
	"repro/internal/core"
)

// SignTag is Tag.Writer's signature over 〈key, tag, val〉, as an MWMR
// writer signs its writes.
func SignTag(s auth.Signer, key string, tag Tag, val string) []byte {
	return s.Sign(tagBody(nil, key, tag, val))
}

// VerifyReadAck reports whether an MWMR client holding v accepts ack
// from server `from` as the answer to its read seq of key.
func VerifyReadAck(v auth.Verifier, seq int64, from core.ProcessID, key string, ack MWReadAck) bool {
	c := mwClient{seq: seq}
	c.setAuth(nil, v)
	return c.verifyReadAck(from, key, ack)
}

// HistorySnapshot returns a deep copy of the server's current history
// for the key-"" register, for assertions. Keyspace-wide capture is
// StateSnapshot.
func (s *Server) HistorySnapshot() History {
	sh := s.lock("")
	defer sh.mu.Unlock()
	if reg := sh.regs[""]; reg != nil {
		return historyOf(reg.rows)
	}
	return make(History)
}
