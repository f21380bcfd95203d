package sim

// SeqDomain is a pre-registered handle for a named ID/seed sequence (see
// Engine.SeqDomain). It is a plain index into the engine's sequence
// table: drawing through it is a bounds check and an increment, with no
// string hashing on the hot path.
type SeqDomain int

// seqTable is the storage behind the named sequences of an Engine: a
// registration map consulted only when a name is registered, and a flat
// counter array indexed by the SeqDomain handles it hands out.
// A value depends only on its name and the draws made from that name
// before it, never on the order in which names were registered.
type seqTable struct {
	idx  map[string]SeqDomain
	vals []uint64
}

func (t *seqTable) domain(name string) SeqDomain {
	d, ok := t.idx[name]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[string]SeqDomain)
		}
		d = SeqDomain(len(t.vals))
		t.idx[name] = d
		t.vals = append(t.vals, 0)
	}
	return d
}

func (t *seqTable) next(d SeqDomain) uint64 {
	t.vals[d]++
	return t.vals[d]
}
