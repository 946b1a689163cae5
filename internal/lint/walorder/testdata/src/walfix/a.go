// Package walfix exercises walorder: the RecordWire replay/journal
// coverage rules and the append-before-ack dominance rule.
package walfix

type RegisterRecord struct{ ID string }

type WindowRecord struct{ ID string }

// OrphanRecord is journaled by a live path but has no replay case.
type OrphanRecord struct{ ID string }

// GhostRecord has a replay case but no live path ever constructs it.
type GhostRecord struct{ ID string }

type RecordWire struct {
	Register *RegisterRecord
	Window   *WindowRecord
	Orphan   *OrphanRecord // want "no replay case"
	Ghost    *GhostRecord  // want "never journaled"
	Seq      int           // non-pointer: not a mutation kind
}

type server struct {
	log []RecordWire
}

func (s *server) appendRecord(rec *RecordWire) error {
	s.log = append(s.log, *rec)
	return nil
}

// ack publishes a mutation result to the client.
//
//kairos:ack
func ack(v any) {}

// noted publishes like ack; its directive carries an explanation after
// the marker, which still makes it an ack function.
//
//kairos:ack — trailing prose after the directive
func noted(v any) {}

// replay covers Register, Window and Ghost — Orphan is missing.
func (s *server) replay(rw RecordWire) {
	switch {
	case rw.Register != nil:
	case rw.Window != nil:
	case rw.Ghost != nil:
	}
}

// good journals before acking on every path: the append dominates.
func (s *server) good(id string) {
	if err := s.appendRecord(&RecordWire{Register: &RegisterRecord{ID: id}}); err != nil {
		return
	}
	ack(id)
}

// bad acks first: a crash between ack and append loses the mutation.
func (s *server) bad(id string) {
	ack(id) // want "no prior appendRecord"
	_ = s.appendRecord(&RecordWire{Window: &WindowRecord{ID: id}})
}

// badBranch journals on one branch only; the fall-through path acks an
// unjournaled mutation.
func (s *server) badBranch(id string, cond bool) {
	if cond {
		_ = s.appendRecord(&RecordWire{Window: &WindowRecord{ID: id}})
	}
	ack(id) // want "no prior appendRecord"
}

// orphan journals the record that rule 1 flags at its field declaration;
// the ordering here is fine.
func (s *server) orphan(id string) {
	if err := s.appendRecord(&RecordWire{Orphan: &OrphanRecord{ID: id}}); err != nil {
		return
	}
	ack(id)
}

// readOnly never journals: read paths are exempt from the ordering rule.
func readOnly(id string) {
	ack(id)
}

// hooked journals inside a closure: closure interiors are out of CFG
// scope, so neither the append nor anything else here is checked.
func (s *server) hooked(id string) func() error {
	return func() error {
		return s.appendRecord(&RecordWire{Register: &RegisterRecord{ID: id}})
	}
}

// waived acks first deliberately, with a reasoned waiver.
func (s *server) waived(id string) {
	ack(id) //kairoslint:allow walorder: fixture proving the waiver grammar silences the ordering rule
	_ = s.appendRecord(&RecordWire{Register: &RegisterRecord{ID: id}})
}

// badNoted acks through noted before journaling.
func (s *server) badNoted(id string) {
	noted(id) // want "noted acks a mutation on a path with no prior appendRecord"
	_ = s.appendRecord(&RecordWire{Window: &WindowRecord{ID: id}})
}
