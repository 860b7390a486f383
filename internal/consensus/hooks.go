package consensus

import "repro/internal/core"

// Hooks turn one acceptor Byzantine, mirroring storage.Hooks for the
// consensus layer: the chaos matrix can forge, equivocate, or withhold
// an acceptor's protocol messages below the SMR slot driver. All hooks
// are optional; a zero Hooks value is an honest acceptor. Hooks run in
// the acceptor's step, once per (message, destination) pair — the
// per-destination fan-out is what enables equivocation (telling
// different peers different things), the fault the RQS adversary
// structure masks via class-3 intersection.
type Hooks struct {
	// ForgeUpdate, if non-nil, replaces each outgoing update message
	// per destination. Returning different values to different
	// destinations equivocates the acceptor's step echo: a fabricated
	// value can only win if it assembles a class-3 quorum of its own,
	// which a single Byzantine sender cannot supply.
	ForgeUpdate func(to core.ProcessID, m UpdateMsg) UpdateMsg
	// DropUpdate, if non-nil and returning true, withholds an outgoing
	// update to the given destination (selective silence).
	DropUpdate func(to core.ProcessID, m UpdateMsg) bool
	// ForgeDecision, if non-nil, replaces the acceptor's decision
	// broadcast per destination — a Byzantine acceptor announcing
	// different outcomes. Learners only adopt a decision once its
	// senders form a basic set (one that must contain a correct
	// process), so a lone forger's announcement is never adopted.
	ForgeDecision func(to core.ProcessID, m DecisionMsg) DecisionMsg
}
