package topo

import (
	"fmt"

	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// FatTree is a k-ary fat tree (k even): k pods of k/2 edge and k/2
// aggregation switches, (k/2)² core switches, and k/2 hosts per edge
// switch — k³/4 hosts in all. Traffic climbs with ECMP (edge → any of the
// pod's aggs, agg → any of its k/2 cores) and descends on exact routes, so
// one flow follows one path. This is the large-fabric shape the fluid
// scale scenarios run on.
type FatTree struct {
	Eng   *sim.Engine
	K     int
	Cores []*Switch
	// Aggs[p][j] and Edges[p][e] are pod p's aggregation and edge
	// switches; agg j uplinks to core group j (cores j·k/2 … j·k/2+k/2-1).
	Aggs  [][]*Switch
	Edges [][]*Switch
	Hosts []*Host
}

// HostsPerPod returns (k/2)².
func (f *FatTree) HostsPerPod() int { return (f.K / 2) * (f.K / 2) }

// NewFatTreeIn builds a k-ary fat tree on the cluster's engine (see
// build). edge configures the host links, fabricLink every switch<->switch
// link.
func NewFatTreeIn(c *sim.Cluster, k int, edge, fabricLink LinkSpec) *FatTree {
	if k < 2 || k%2 != 0 {
		panic("topo: fat tree needs an even k >= 2")
	}
	b := newBuild(c.Engine())
	half := k / 2
	f := &FatTree{Eng: b.eng, K: k}

	// Cores first, then pods, in fixed construction order.
	for i := 0; i < half*half; i++ {
		f.Cores = append(f.Cores, NewSwitch(b.eng, fmt.Sprintf("core%d", i)))
	}
	f.Aggs = make([][]*Switch, k)
	f.Edges = make([][]*Switch, k)
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			f.Aggs[p] = append(f.Aggs[p], NewSwitch(b.eng, fmt.Sprintf("agg%d.%d", p, j)))
		}
		for e := 0; e < half; e++ {
			f.Edges[p] = append(f.Edges[p], NewSwitch(b.eng, fmt.Sprintf("edge%d.%d", p, e)))
		}
	}

	// Links. corePodPorts[i][p]: core i's port toward pod p.
	// aggCorePorts[p][j][m]: agg (p,j)'s port toward core j·half+m.
	// aggEdgePorts[p][j][e]: agg (p,j)'s port down to edge (p,e).
	// edgeUpPorts[p][e][j]: edge (p,e)'s port up to agg (p,j).
	corePodPorts := make([][]int, half*half)
	for i := range corePodPorts {
		corePodPorts[i] = make([]int, k)
	}
	aggCorePorts := make([][][]int, k)
	aggEdgePorts := make([][][]int, k)
	edgeUpPorts := make([][][]int, k)
	for p := 0; p < k; p++ {
		aggCorePorts[p] = make([][]int, half)
		aggEdgePorts[p] = make([][]int, half)
		edgeUpPorts[p] = make([][]int, half)
		for j := 0; j < half; j++ {
			aggCorePorts[p][j] = make([]int, half)
			aggEdgePorts[p][j] = make([]int, half)
			edgeUpPorts[p][j] = make([]int, half)
		}
		// Agg <-> core tier.
		for j := 0; j < half; j++ {
			agg := f.Aggs[p][j]
			for m := 0; m < half; m++ {
				core := f.Cores[j*half+m]
				up := b.pipe(fabricLink, core)
				aggCorePorts[p][j][m] = agg.AddPort(up)
				down := b.pipe(fabricLink, agg)
				corePodPorts[j*half+m][p] = core.AddPort(down)
			}
		}
		// Edge <-> agg mesh within the pod.
		for e := 0; e < half; e++ {
			es := f.Edges[p][e]
			for j := 0; j < half; j++ {
				agg := f.Aggs[p][j]
				up := b.pipe(fabricLink, agg)
				edgeUpPorts[p][e][j] = es.AddPort(up)
				down := b.pipe(fabricLink, es)
				aggEdgePorts[p][j][e] = agg.AddPort(down)
			}
		}
	}

	// Hosts.
	total := k * half * half
	id := packet.HostID(0)
	hostPorts := make([][][]int, k) // hostPorts[p][e][i]
	for p := 0; p < k; p++ {
		hostPorts[p] = make([][]int, half)
		for e := 0; e < half; e++ {
			hostPorts[p][e] = make([]int, half)
			es := f.Edges[p][e]
			for i := 0; i < half; i++ {
				h := NewHost(b.eng, id)
				h.SetUplink(b.pipe(edge, es))
				hostPorts[p][e][i] = es.AddPort(b.pipe(edge, h))
				f.Hosts = append(f.Hosts, h)
				id++
			}
		}
	}

	// Routing: ECMP up, exact down.
	hostsPerPod := half * half
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			es := f.Edges[p][e]
			for h := 0; h < total; h++ {
				dst := packet.HostID(h)
				if h/hostsPerPod == p && (h%hostsPerPod)/half == e {
					es.AddRoute(dst, hostPorts[p][e][h%half])
				} else {
					es.AddECMPRoute(dst, edgeUpPorts[p][e]...)
				}
			}
		}
		for j := 0; j < half; j++ {
			agg := f.Aggs[p][j]
			for h := 0; h < total; h++ {
				dst := packet.HostID(h)
				if h/hostsPerPod == p {
					agg.AddRoute(dst, aggEdgePorts[p][j][(h%hostsPerPod)/half])
				} else {
					agg.AddECMPRoute(dst, aggCorePorts[p][j]...)
				}
			}
		}
	}
	for i := 0; i < half*half; i++ {
		core := f.Cores[i]
		for h := 0; h < total; h++ {
			core.AddRoute(packet.HostID(h), corePodPorts[i][h/hostsPerPod])
		}
	}
	return f
}
