package control

import (
	"errors"
	"testing"

	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/units"
)

func TestAdmitHoseDedicatedLinks(t *testing.T) {
	profiles := []HoseProfile{
		{VM: 0, Out: 5 * units.Gbps, In: 5 * units.Gbps},
		{VM: 1, Out: 20 * units.Gbps, In: 10 * units.Gbps},
	}
	if err := AdmitHose(profiles, 25*units.Gbps, nil); err != nil {
		t.Fatalf("admissible set rejected: %v", err)
	}
	profiles[1].In = 30 * units.Gbps
	err := AdmitHose(profiles, 25*units.Gbps, nil)
	var he *HoseError
	if !errors.As(err, &he) {
		t.Fatalf("expected HoseError, got %v", err)
	}
	if he.VM != 1 || he.Dir != "inbound" {
		t.Fatalf("wrong diagnosis: %+v", he)
	}
}

func TestAdmitHoseSharedLinks(t *testing.T) {
	// Two VMs share one access link: their sums must fit.
	profiles := []HoseProfile{
		{VM: 0, Out: 6 * units.Gbps, In: 3 * units.Gbps},
		{VM: 1, Out: 6 * units.Gbps, In: 3 * units.Gbps},
	}
	share := func(packet.HostID) int { return 0 }
	err := AdmitHose(profiles, 10*units.Gbps, share)
	var he *HoseError
	if !errors.As(err, &he) {
		t.Fatalf("oversubscribed shared link accepted: %v", err)
	}
	if he.Shared != 2 || he.Dir != "outbound" {
		t.Fatalf("wrong diagnosis: %+v", he)
	}
	if err := AdmitHose(profiles, 12*units.Gbps, share); err != nil {
		t.Fatalf("fitting shared link rejected: %v", err)
	}
}

// TestAdmitHoseNamesEarliestLink over-subscribes three dedicated links and
// requires every call to name the same one — the first in profile order —
// rather than whichever a map iteration happens to reach first.
func TestAdmitHoseNamesEarliestLink(t *testing.T) {
	profiles := []HoseProfile{
		{VM: 0, Out: 5 * units.Gbps, In: 5 * units.Gbps},
		{VM: 1, Out: 30 * units.Gbps},
		{VM: 2, In: 30 * units.Gbps},
		{VM: 3, Out: 30 * units.Gbps, In: 30 * units.Gbps},
	}
	want := (&HoseError{VM: 1, Dir: "outbound", Need: 30 * units.Gbps, Have: 25 * units.Gbps, Shared: 1}).Error()
	for i := 0; i < 200; i++ {
		err := AdmitHose(profiles, 25*units.Gbps, nil)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %s", i, err, want)
		}
	}
}

func TestAdmitHoseRejectsBadInput(t *testing.T) {
	if err := AdmitHose(nil, 0, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if err := AdmitHose([]HoseProfile{{VM: 1, Out: -1}}, units.Gbps, nil); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestGrantHoseAllOrNothing(t *testing.T) {
	// Four VMs at 5G each on a 25G switch: 20G of absolute reservations
	// per pipeline — fits. A fifth VM at 10G pushes the ingress table past
	// capacity; the whole grant must roll back.
	c := NewController(25 * units.Gbps)
	ingress, egress := core.NewTable(), core.NewTable()
	profiles := []HoseProfile{
		{VM: 0, Out: 5 * units.Gbps, In: 5 * units.Gbps},
		{VM: 1, Out: 5 * units.Gbps, In: 5 * units.Gbps},
		{VM: 2, Out: 5 * units.Gbps, In: 5 * units.Gbps},
		{VM: 3, Out: 5 * units.Gbps, In: 5 * units.Gbps},
	}
	grants, err := c.GrantHose(profiles, 25*units.Gbps, ingress, egress, 0)
	if err != nil {
		t.Fatalf("admissible hose rejected: %v", err)
	}
	if len(grants) != 4 || ingress.Len() != 4 || egress.Len() != 4 {
		t.Fatalf("deployed %d/%d AQs", ingress.Len(), egress.Len())
	}
	// Too much for the remaining ingress capacity: rollback expected.
	more := []HoseProfile{{VM: 4, Out: 10 * units.Gbps, In: 1 * units.Gbps}}
	if _, err := c.GrantHose(more, 25*units.Gbps, ingress, egress, 0); err == nil {
		t.Fatal("over-capacity hose accepted")
	}
	if ingress.Len() != 4 || egress.Len() != 4 {
		t.Fatalf("rollback failed: %d/%d AQs deployed", ingress.Len(), egress.Len())
	}
	// Inadmissible per-link profile never reaches the controller.
	bad := []HoseProfile{{VM: 5, Out: 30 * units.Gbps, In: 1 * units.Gbps}}
	if _, err := c.GrantHose(bad, 25*units.Gbps, ingress, egress, 0); err == nil {
		t.Fatal("inadmissible profile accepted")
	}
}
