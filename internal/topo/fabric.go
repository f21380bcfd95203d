package topo

import (
	"fmt"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// LeafSpine is a two-tier Clos fabric: every leaf connects to every spine,
// hosts hang off leaves, and inter-leaf traffic is ECMP-hashed across the
// spines. This is the "data center network" shape the paper targets; AQs
// deploy on the leaf switches' pipelines (an entity may hold AQs on
// several switches, §4.1).
type LeafSpine struct {
	Eng          *sim.Engine
	Spines       []*Switch
	Leaves       []*Switch
	Hosts        []*Host
	HostsPerLeaf int
}

// NewLeafSpine builds a fabric on one engine with the given leaf, spine
// and per-leaf host counts. edge configures host links, fabricLink the
// leaf<->spine links.
func NewLeafSpine(eng *sim.Engine, leaves, spines, hostsPerLeaf int, edge, fabricLink LinkSpec) *LeafSpine {
	return newBuild(eng).leafSpine(leaves, spines, hostsPerLeaf, edge, fabricLink)
}

func (b *build) leafSpine(leaves, spines, hostsPerLeaf int, edge, fabricLink LinkSpec) *LeafSpine {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		panic("topo: leaf-spine needs at least one of everything")
	}
	f := &LeafSpine{
		Eng:          b.eng,
		HostsPerLeaf: hostsPerLeaf,
	}
	for s := 0; s < spines; s++ {
		f.Spines = append(f.Spines, NewSwitch(b.eng, fmt.Sprintf("spine%d", s)))
	}
	for l := 0; l < leaves; l++ {
		f.Leaves = append(f.Leaves, NewSwitch(b.eng, fmt.Sprintf("leaf%d", l)))
	}

	// Leaf <-> spine mesh.
	upPorts := make([][]int, leaves) // upPorts[l][s] = port on leaf l toward spine s
	for l := 0; l < leaves; l++ {
		upPorts[l] = make([]int, spines)
		for s := 0; s < spines; s++ {
			upPorts[l][s] = f.Leaves[l].AddPort(b.pipe(fabricLink, f.Spines[s]))
			// Spine ports are added in leaf order, so spine port l is
			// toward leaf l (the routes below rely on it).
			f.Spines[s].AddPort(b.pipe(fabricLink, f.Leaves[l]))
		}
	}

	// Hosts.
	total := leaves * hostsPerLeaf
	id := packet.HostID(0)
	for l := 0; l < leaves; l++ {
		for i := 0; i < hostsPerLeaf; i++ {
			h := NewHost(b.eng, id)
			h.SetUplink(b.pipe(edge, f.Leaves[l]))
			port := f.Leaves[l].AddPort(b.pipe(edge, h))
			f.Leaves[l].AddRoute(id, port)
			f.Hosts = append(f.Hosts, h)
			id++
		}
	}

	// Routing: leaves reach remote hosts via ECMP over all spines; spines
	// reach every host via its leaf.
	for l := 0; l < leaves; l++ {
		for h := 0; h < total; h++ {
			if h/hostsPerLeaf == l {
				continue // local route already installed
			}
			f.Leaves[l].AddECMPRoute(packet.HostID(h), upPorts[l]...)
		}
	}
	for s := 0; s < spines; s++ {
		for h := 0; h < total; h++ {
			f.Spines[s].AddRoute(packet.HostID(h), h/hostsPerLeaf)
		}
	}
	return f
}

// Leaf returns the leaf switch of the given host.
func (f *LeafSpine) Leaf(h packet.HostID) *Switch {
	return f.Leaves[int(h)/f.HostsPerLeaf]
}
