// Package control implements the AQ control plane of §4: the AQ Controller
// that receives tenant requests, grants them against link capacity (in
// absolute mode) or network weights (in weighted mode), generates unique AQ
// IDs, and deploys AQ configurations into switch pipeline tables. It also
// provides §6's arrival-rate reallocator and the TCP wire protocol that
// cmd/aqsimd serves and cmd/aqctl speaks.
package control

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/units"
)

// Position selects the switch pipeline an AQ is deployed at (§4.1): the
// ingress pipeline controls traffic a VM sends (outbound); the egress
// pipeline controls traffic it receives (inbound).
type Position uint8

const (
	// Ingress deploys at the ingress pipeline.
	Ingress Position = iota
	// Egress deploys at the egress pipeline.
	Egress
)

// String implements fmt.Stringer.
func (p Position) String() string {
	if p == Egress {
		return "egress"
	}
	return "ingress"
}

// Mode selects how bandwidth is allocated (§4.1).
type Mode uint8

const (
	// Absolute requests a hard bandwidth guarantee; the controller admits
	// it only if the link has spare capacity.
	Absolute Mode = iota
	// Weighted requests a proportional share: active weighted AQs divide
	// the remaining capacity by weight.
	Weighted
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Weighted {
		return "weighted"
	}
	return "absolute"
}

// Request is a tenant's AQ request (Table 1: bandwidth demand, CC fields,
// position profile).
type Request struct {
	Tenant    string
	Mode      Mode
	Bandwidth units.BitRate // absolute mode
	Weight    float64       // weighted mode
	CC        core.CCType
	// ECNThreshold and Limit override the AQ defaults when non-zero.
	ECNThreshold int
	Limit        int
	Position     Position
}

// Grant is the controller's answer: the unique AQ ID the tenant must tag
// into its packet headers, and the rate the AQ was deployed with.
type Grant struct {
	ID   packet.AQID
	Rate units.BitRate
}

// ErrInsufficientBandwidth rejects absolute requests beyond link capacity.
var ErrInsufficientBandwidth = errors.New("control: insufficient bandwidth for absolute guarantee")

// ErrBadRequest rejects malformed requests.
var ErrBadRequest = errors.New("control: bad request")

// ErrUnknownID rejects operations naming a grant that does not exist.
var ErrUnknownID = errors.New("control: unknown id")

// Controller manages the AQs of one bottleneck link: admission, ID
// generation, deployment, and weighted-mode rebalancing when the set of
// active entities changes.
type Controller struct {
	mu       sync.Mutex
	capacity units.BitRate
	nextID   packet.AQID
	// grants holds the live grants in ascending ID order. IDs are handed
	// out increasing, so a grant appends, a lookup binary-searches and a
	// release deletes; every sum over grants runs in this one order, so a
	// replayed script rounds its float sums identically.
	grants []*grantState
}

type grantState struct {
	id     packet.AQID
	req    Request
	table  *core.Table
	aq     *core.AQ // holds the grant's one deployed rate: aq.Rate()
	active bool
}

// NewController returns a controller for a link of the given capacity.
func NewController(capacity units.BitRate) *Controller {
	return &Controller{capacity: capacity, nextID: 1}
}

// findLocked returns the index of grant id in c.grants, or ok=false.
func (c *Controller) findLocked(id packet.AQID) (int, bool) {
	return slices.BinarySearchFunc(c.grants, id, func(gs *grantState, id packet.AQID) int {
		return cmp.Compare(gs.id, id)
	})
}

// lookupLocked returns grant id, or nil when it is not live.
func (c *Controller) lookupLocked(id packet.AQID) *grantState {
	if i, ok := c.findLocked(id); ok {
		return c.grants[i]
	}
	return nil
}

// Capacity returns the managed link capacity.
func (c *Controller) Capacity() units.BitRate { return c.capacity }

// Grant admits the request and deploys the AQ into tbl (the pipeline table
// matching the request's position profile on the target switch). Weighted
// grants start active and trigger a rebalance.
func (c *Controller) Grant(req Request, tbl *core.Table) (Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tbl == nil {
		return Grant{}, fmt.Errorf("%w: nil table", ErrBadRequest)
	}
	switch req.Mode {
	case Absolute:
		if req.Bandwidth <= 0 {
			return Grant{}, fmt.Errorf("%w: absolute request needs a bandwidth", ErrBadRequest)
		}
		if c.absoluteReservedLocked(tbl)+req.Bandwidth > c.capacity {
			return Grant{}, ErrInsufficientBandwidth
		}
	case Weighted:
		if req.Weight <= 0 {
			return Grant{}, fmt.Errorf("%w: weighted request needs a weight", ErrBadRequest)
		}
		if err := c.checkWeight(req.Weight); err != nil {
			return Grant{}, err
		}
	default:
		return Grant{}, fmt.Errorf("%w: unknown mode %d", ErrBadRequest, req.Mode)
	}
	id := c.nextID
	c.nextID++
	gs := &grantState{id: id, req: req, table: tbl, active: true}
	c.grants = append(c.grants, gs)
	gs.aq = tbl.Deploy(core.Config{
		ID:           id,
		Rate:         req.Bandwidth, // weighted rate fixed by rebalance below
		Limit:        req.Limit,
		CC:           req.CC,
		ECNThreshold: req.ECNThreshold,
	})
	if req.Mode == Weighted {
		c.rebalanceLocked(tbl)
	}
	return Grant{ID: id, Rate: gs.aq.Rate()}, nil
}

// Release undeploys a granted AQ and rebalances its table. It reports
// whether the id named a live grant (the wire protocol answers a miss
// with unknown_id).
func (c *Controller) Release(id packet.AQID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.findLocked(id)
	if !ok {
		return false
	}
	gs := c.grants[i]
	c.grants = slices.Delete(c.grants, i, i+1)
	gs.table.Remove(id)
	c.rebalanceLocked(gs.table)
	return true
}

// SetActive marks a weighted entity active or idle, reporting whether the
// id named a live grant. The §5.2 experiments (Fig. 9) rely on this: when
// an entity stops sending, the operator marks it idle and the remaining
// active entities absorb its share.
func (c *Controller) SetActive(id packet.AQID, active bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	gs := c.lookupLocked(id)
	if gs == nil {
		return false
	}
	if gs.active != active {
		gs.active = active
		c.rebalanceLocked(gs.table)
	}
	return true
}

// SetGuarantee reconfigures a live grant in place — the §4 control plane's
// runtime mutation: an absolute grant moves to the new bandwidth (admission
// re-checked against the other reservations), a weighted grant to the new
// weight. Exactly one of bw/weight must be non-zero, matching the grant's
// mode; the other argument must be zero. It returns the grant's deployed
// rate after the change (for weighted grants, the post-rebalance share).
func (c *Controller) SetGuarantee(id packet.AQID, bw units.BitRate, weight float64) (units.BitRate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gs := c.lookupLocked(id)
	if gs == nil {
		return 0, fmt.Errorf("%w: no grant with id %d", ErrUnknownID, id)
	}
	switch {
	case bw > 0 && weight == 0:
		if gs.req.Mode != Absolute {
			return 0, fmt.Errorf("%w: grant %d is weighted; use a weight", ErrBadRequest, id)
		}
		if c.absoluteReservedLocked(gs.table)-gs.req.Bandwidth+bw > c.capacity {
			return 0, ErrInsufficientBandwidth
		}
		gs.req.Bandwidth = bw
		gs.aq.SetRate(bw)
	case weight > 0 && bw == 0:
		if gs.req.Mode != Weighted {
			return 0, fmt.Errorf("%w: grant %d is absolute; use a bandwidth", ErrBadRequest, id)
		}
		if err := c.checkWeight(weight); err != nil {
			return 0, err
		}
		gs.req.Weight = weight
	default:
		return 0, fmt.Errorf("%w: need exactly one of bandwidth or weight", ErrBadRequest)
	}
	c.rebalanceLocked(gs.table)
	return gs.aq.Rate(), nil
}

// GrantInfo is one grant's introspectable state: identity, guarantee, and
// the deployed AQ's packet counters — the per-tenant slice of a telemetry
// snapshot.
type GrantInfo struct {
	ID     packet.AQID  `json:"id"`
	Tenant string       `json:"tenant"`
	Mode   string       `json:"mode"`
	Rate   float64      `json:"rate_bps"`
	Weight float64      `json:"weight,omitempty"`
	Active bool         `json:"active"`
	AQ     core.AQStats `json:"aq"`
}

// Info snapshots every grant in ascending ID order.
func (c *Controller) Info() []GrantInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GrantInfo, 0, len(c.grants))
	for _, gs := range c.grants {
		out = append(out, GrantInfo{
			ID:     gs.id,
			Tenant: gs.req.Tenant,
			Mode:   gs.req.Mode.String(),
			Rate:   float64(gs.aq.Rate()),
			Weight: gs.req.Weight,
			Active: gs.active,
			AQ:     gs.aq.Stats(),
		})
	}
	return out
}

// Rate reports the currently deployed rate of a grant.
func (c *Controller) Rate(id packet.AQID) units.BitRate {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gs := c.lookupLocked(id); gs != nil {
		return gs.aq.Rate()
	}
	return 0
}

// Grants returns the granted IDs in ascending order.
func (c *Controller) Grants() []packet.AQID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]packet.AQID, 0, len(c.grants))
	for _, gs := range c.grants {
		ids = append(ids, gs.id)
	}
	return ids
}

// absoluteReservedLocked sums the absolute reservations on a table.
func (c *Controller) absoluteReservedLocked(tbl *core.Table) units.BitRate {
	var sum units.BitRate
	for _, gs := range c.grants {
		if gs.table == tbl && gs.req.Mode == Absolute {
			sum += gs.req.Bandwidth
		}
	}
	return sum
}

// checkWeight refuses a weight rebalanceLocked cannot divide by: unless
// capacity·weight is finite, avail·w/total overflows to +Inf (past ~1.8e298
// at 10 Gbps) or, with two such weights, to Inf/Inf = NaN — a rate no AQ,
// reply or snapshot can carry.
func (c *Controller) checkWeight(w float64) error {
	if x := float64(c.capacity) * w; math.IsInf(x, 0) || math.IsNaN(x) {
		return fmt.Errorf("%w: weight %g overflows the share of a %v link", ErrBadRequest, w, c.capacity)
	}
	return nil
}

// rebalanceLocked recomputes weighted rates on one table: active weighted
// AQs split the capacity left over by absolute reservations, by weight.
func (c *Controller) rebalanceLocked(tbl *core.Table) {
	avail := c.capacity - c.absoluteReservedLocked(tbl)
	var total float64
	for _, gs := range c.grants {
		if gs.table == tbl && gs.req.Mode == Weighted && gs.active {
			total += gs.req.Weight
		}
	}
	if total <= 0 {
		return
	}
	for _, gs := range c.grants {
		if gs.table != tbl || gs.req.Mode != Weighted || !gs.active {
			continue
		}
		gs.aq.SetRate(units.BitRate(float64(avail) * gs.req.Weight / total))
	}
}
