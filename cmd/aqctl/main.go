// Command aqctl is the client of the AQ Controller of §4.1: it sends one
// request to cmd/aqsimd, which serves the controller verbs against a live
// fabric alongside the service verbs — workload attach/detach, guarantee
// reconfiguration, telemetry and run control — and prints the answer.
//
// Controller verbs:
//
//	aqctl -op grant -tenant t1 -mode weighted \
//	      -weight 1 -cc ecn -position ingress -switch S1
//	aqctl -op set_rate -id 3 -bandwidth 2e9
//	aqctl -op set_weight -id 4 -weight 3
//	aqctl -op set_active -id 4 -active=false
//	aqctl -op release -id 3
//	aqctl -op list
//
// Service verbs:
//
//	aqctl -op attach -tenant t1 -id 3 -kind websearch -load 0.5
//	aqctl -op attach -tenant bg -id 4 -kind fluid -load 0.8 -entities 100000
//	aqctl -op stats
//	aqctl -op watch -count 10
//	aqctl -op trace -count 50
//	aqctl -op pause
//	aqctl -op step -count 5
//	aqctl -op advance -until 2000000000
//	aqctl -op quit
//
// -addr names the daemon (default aqsimd's 127.0.0.1:7171). A refused
// request exits non-zero with its error code in brackets.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"aqueue/internal/control"
	"aqueue/internal/units"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7171", "daemon address")
		op       = flag.String("op", "", "operation: hello|grant|release|set_active|set_rate|set_weight|list|attach|detach|stats|watch|trace|fingerprint|pause|resume|step|advance|quit")
		tenant   = flag.String("tenant", "", "tenant name")
		mode     = flag.String("mode", "absolute", "absolute|weighted")
		bw       = flag.Float64("bandwidth", 0, "bandwidth in bits/s (grant/set_rate)")
		weight   = flag.Float64("weight", 0, "network weight (grant/set_weight)")
		ccName   = flag.String("cc", "", "grant: drop|ecn|delay; attach: newreno|cubic|dctcp|...")
		position = flag.String("position", "ingress", "ingress|egress")
		swName   = flag.String("switch", "S1", "target switch")
		id       = flag.Uint("id", 0, "AQ id (release/set_active/set_rate/set_weight, attach tag) or driver id (detach)")
		active   = flag.Bool("active", true, "set_active value")
		kind     = flag.String("kind", "websearch", "attach: websearch|datamining|fixed|fluid")
		size     = flag.Int64("size", 0, "attach: flow size in bytes (kind fixed)")
		load     = flag.Float64("load", 0, "attach: offered load as a fraction of capacity")
		entities = flag.Int("entities", 0, "attach: fluid entity count (kind fluid, 0 = 1)")
		seed     = flag.Uint64("seed", 0, "attach: workload seed (0 = deterministic default)")
		count    = flag.Int("count", 0, "watch/trace/step: snapshots, events or windows")
		until    = flag.Int64("until", 0, "advance: absolute simulated time target in ns")
	)
	flag.Parse()

	if *op == "" {
		flag.Usage()
		os.Exit(2)
	}
	runClient(*addr, control.WireRequest{
		V:         control.ProtoV2,
		Op:        *op,
		Tenant:    *tenant,
		Mode:      *mode,
		Bandwidth: *bw,
		Weight:    *weight,
		CC:        *ccName,
		Position:  *position,
		Switch:    *swName,
		ID:        uint32(*id),
		Active:    active,
		Kind:      *kind,
		Size:      *size,
		Load:      *load,
		Entities:  *entities,
		Seed:      *seed,
		Count:     *count,
		UntilNS:   *until,
	})
}

func runClient(addr string, req control.WireRequest) {
	cli, err := control.Dial(addr)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer cli.Close()
	resp, err := cli.Do(req)
	if err != nil {
		if resp.Code != "" {
			log.Fatalf("%s: [%s] %v", req.Op, resp.Code, err)
		}
		log.Fatalf("%s: %v", req.Op, err)
	}
	print := func(resp control.WireResponse) {
		switch {
		case len(resp.Data) > 0:
			fmt.Println(string(resp.Data))
		case req.Op == "grant":
			fmt.Printf("granted AQ id=%d rate=%v\n", resp.ID, units.BitRate(resp.Rate))
		case req.Op == "attach":
			fmt.Printf("attached driver id=%d\n", resp.ID)
		case req.Op == "set_active" || req.Op == "set_rate" || req.Op == "set_weight":
			fmt.Printf("AQ id=%d rate=%v\n", resp.ID, units.BitRate(resp.Rate))
		case req.Op == "list":
			fmt.Printf("granted AQ ids: %v\n", resp.IDs)
		default:
			fmt.Println("ok")
		}
	}
	print(resp)
	// watch streams Count responses for the one request; drain the rest.
	if req.Op == "watch" {
		for i := 1; i < req.Count; i++ {
			resp, err := cli.Recv()
			if err != nil {
				log.Fatalf("watch: %v", err)
			}
			print(resp)
		}
	}
}
