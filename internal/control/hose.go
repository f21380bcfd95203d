package control

import (
	"fmt"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/units"
)

// This file implements hose-model admission for VM traffic profiles
// (§2.3's bi-directional guarantees; the hose model of [14, 16, 33]): a
// set of per-VM inbound/outbound reservations is admissible on a
// single-switch star iff every access link can carry its VM's profile,
// because the switch fabric itself is non-blocking. For multi-VM-per-link
// topologies the per-link sums apply.
//
// The AQ Controller uses this to answer the Example 3 question — "can
// every VM get its profile regardless of the traffic matrix?" — before
// granting the pair of ingress/egress AQs that enforce it.

// HoseProfile is one VM's reservation.
type HoseProfile struct {
	VM  packet.HostID
	Out units.BitRate
	In  units.BitRate
}

// HoseError reports why a profile set is inadmissible.
type HoseError struct {
	VM     packet.HostID
	Dir    string // "inbound" or "outbound"
	Need   units.BitRate
	Have   units.BitRate
	Shared int // VMs sharing the access link
}

// Error implements error.
func (e *HoseError) Error() string {
	return fmt.Sprintf("control: hose profile of VM %d inadmissible: %s needs %v of a %v link (shared by %d VMs)",
		e.VM, e.Dir, e.Need, e.Have, e.Shared)
}

// AdmitHose checks a profile set against per-VM access-link capacity.
// linkOf maps a VM to its access-link identifier (VMs mapping to the same
// identifier share the link); nil gives every VM a dedicated link.
func AdmitHose(profiles []HoseProfile, access units.BitRate, linkOf func(packet.HostID) int) error {
	if access <= 0 {
		return fmt.Errorf("control: hose admission needs a positive access capacity")
	}
	if linkOf == nil {
		linkOf = func(h packet.HostID) int { return int(h) }
	}
	type sums struct {
		out, in units.BitRate
		n       int
		firstVM packet.HostID
	}
	// links holds the access links in first-appearance order, so the error
	// names the earliest over-subscribed link in profile order; slot only
	// finds a link's place in it.
	var links []sums
	slot := make(map[int]int)
	for _, p := range profiles {
		if p.Out < 0 || p.In < 0 {
			return fmt.Errorf("control: negative reservation for VM %d", p.VM)
		}
		l := linkOf(p.VM)
		i, ok := slot[l]
		if !ok {
			i = len(links)
			slot[l] = i
			links = append(links, sums{firstVM: p.VM})
		}
		s := &links[i]
		s.out += p.Out
		s.in += p.In
		s.n++
	}
	for _, s := range links {
		if s.out > access {
			return &HoseError{VM: s.firstVM, Dir: "outbound", Need: s.out, Have: access, Shared: s.n}
		}
		if s.in > access {
			return &HoseError{VM: s.firstVM, Dir: "inbound", Need: s.in, Have: access, Shared: s.n}
		}
	}
	return nil
}

// HoseGrant pairs the two AQs that enforce one VM's profile.
type HoseGrant struct {
	VM  packet.HostID
	Out Grant // ingress-pipeline AQ (outbound)
	In  Grant // egress-pipeline AQ (inbound)
}

// GrantHose admits the profile set (AdmitHose with dedicated access links)
// and, on success, grants the paired ingress/egress AQs for every VM on
// the given switch tables. On any failure previously granted AQs are
// released, so the operation is all-or-nothing.
func (c *Controller) GrantHose(profiles []HoseProfile, access units.BitRate,
	ingress, egress *core.Table, limit int) ([]HoseGrant, error) {
	if err := AdmitHose(profiles, access, nil); err != nil {
		return nil, err
	}
	grants := make([]HoseGrant, 0, len(profiles))
	rollback := func() {
		for _, g := range grants {
			c.Release(g.Out.ID)
			c.Release(g.In.ID)
		}
	}
	for _, p := range profiles {
		out, err := c.Grant(Request{Tenant: fmt.Sprintf("vm%d-out", p.VM),
			Mode: Absolute, Bandwidth: p.Out, Limit: limit, Position: Ingress}, ingress)
		if err != nil {
			rollback()
			return nil, err
		}
		in, err := c.Grant(Request{Tenant: fmt.Sprintf("vm%d-in", p.VM),
			Mode: Absolute, Bandwidth: p.In, Limit: limit, Position: Egress}, egress)
		if err != nil {
			c.Release(out.ID)
			rollback()
			return nil, err
		}
		grants = append(grants, HoseGrant{VM: p.VM, Out: out, In: in})
	}
	return grants, nil
}
