// fabric: AQ beyond a single switch. Two tenants spread across a 2-leaf /
// 2-spine ECMP fabric (2:1 oversubscribed) contend for the leaf uplinks;
// tenant B opens four times the flows. A weighted AQ per tenant on the
// sending leaf's ingress pipeline restores the 50:50 split that the
// physical queues hand to whoever opens more flows.
//
// Run: go run ./examples/fabric
package main

import (
	"fmt"

	"aqueue/internal/experiments"
	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

func main() {
	p := harness.Params{Horizon: 150 * sim.Millisecond}
	pqA, pqB, aqA, aqB := experiments.ExtFabricIsolation(p)
	fmt.Println("2-leaf/2-spine fabric, ECMP, 2:1 oversubscribed; A: 8 flows, B: 32 flows")
	fmt.Printf("  physical queues: A %.2f Gbps, B %.2f Gbps\n", pqA, pqB)
	fmt.Printf("  weighted AQs:    A %.2f Gbps, B %.2f Gbps\n", aqA, aqB)

	pqIn, aqIn := experiments.ExtFabricIncast(p)
	fmt.Println("\n8:1 incast at a VM with a 2 Gbps inbound guarantee:")
	fmt.Printf("  physical queues: %.2f Gbps land on the victim\n", pqIn)
	fmt.Printf("  egress AQ:       %.2f Gbps (the profile holds)\n", aqIn)
}
