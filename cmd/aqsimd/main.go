// Command aqsimd hosts a long-running simulated fabric as a daemon: a
// topology on one engine with an AQ controller that free-runs (optionally
// paced against the wall clock) and accepts runtime mutations over the
// wire protocol — tenant grants and guarantee reconfigurations,
// open-loop workload attach/detach, telemetry snapshots and trace tails,
// and run control. Mutations land only at window boundaries, so a session
// scripted at fixed windows replays byte-identically (see
// internal/service).
//
// Serve a 8x8 dumbbell advancing in 1 ms windows as fast as possible:
//
//	aqsimd -listen 127.0.0.1:7171
//
// Real-time pacing, paused until a client steps it:
//
//	aqsimd -listen 127.0.0.1:7171 -pace 1 -paused
//
// Drive it with aqctl (see cmd/aqctl): grant, attach, stats, watch,
// trace, pause/step/advance/resume, quit.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aqueue/internal/control"
	"aqueue/internal/service"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/units"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7171", "listen address")
		topoN   = flag.String("topo", "dumbbell", "topology: dumbbell|star")
		hosts   = flag.Int("hosts", 8, "hosts per dumbbell side, or total star size")
		window  = flag.Duration("window", time.Millisecond, "mutation window (simulated time)")
		pace    = flag.Float64("pace", 0, "simulated seconds per wall second; 0 = as fast as possible")
		paused  = flag.Bool("paused", false, "start paused, waiting for run-control commands")
		traceN  = flag.Int("trace", 4096, "trace ring size in events; 0 disables tracing")
		ccName  = flag.String("cc", "cubic", "default congestion control for attached drivers")
		rate    = flag.Float64("rate", 0, "link rate in bits/s (0 = paper default 10 Gbps)")
		fluidEp = flag.Duration("fluidepoch", 0, "integration epoch for kind \"fluid\" drivers (simulated time; 0 = default 100µs)")
	)
	flag.Parse()

	cfg := service.Config{
		Topo:       *topoN,
		Hosts:      *hosts,
		Window:     sim.Time(window.Nanoseconds()),
		TraceLen:   *traceN,
		CC:         *ccName,
		FluidEpoch: sim.Time(fluidEp.Nanoseconds()),
	}
	if *rate > 0 {
		spec := topo.DefaultSim()
		spec.Rate = units.BitRate(*rate)
		cfg.Edge, cfg.Trunk = spec, spec
	}
	f, err := service.NewFabric(cfg)
	if err != nil {
		log.Fatalf("fabric: %v", err)
	}
	s := service.Start(f, service.RunConfig{Pace: *pace, StartPaused: *paused})
	ws := control.NewWireServer(s.Handler())
	s.SetOnQuit(func() { ws.Close() })

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("aqsimd: %s fabric (%d hosts), window %v, capacity %v, listening on %s",
		cfg.Topo, *hosts, *window, f.Capacity(), ln.Addr())

	// SIGINT/SIGTERM shut down like a wire "quit": stop at the next
	// boundary, then close the listener.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("aqsimd: signal received, stopping at next window boundary")
		s.Quit()
		ws.Close()
	}()

	// Serve returns once the listener closes — via wire "quit" (the
	// SetOnQuit hook) or a signal, even one that arrived before Serve.
	if err := ws.Serve(ln); err != nil {
		// The accept error after Close is the normal shutdown path.
		log.Printf("aqsimd: listener closed (%v)", err)
	}
	select {
	case <-s.Done():
	default:
		s.Quit()
	}
	snap := s.Latest()
	log.Printf("aqsimd: stopped after %d windows (%v simulated), fingerprint %s",
		snap.Window, time.Duration(snap.NowNS), f.Fingerprint())
}
