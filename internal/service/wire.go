package service

import (
	"encoding/json"

	"aqueue/internal/control"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
)

// This file is the fabric service's wire front end: a control.Handler
// implementing the service verbs on top of the shared NDJSON loop
// (control.WireServer). Controller verbs are delegated to
// control.DispatchController; everything that mutates the fabric goes
// through the Service mailbox, so wire clients can never land a change
// inside a simulation window.

// maxWatch bounds one watch request so a typo'd count cannot pin a
// connection goroutine forever.
const maxWatch = 100_000

// StatsReply is the "stats" verb payload: the full boundary snapshot plus
// the fabric's run accounting. The sync section lives here — next
// to the snapshot, never inside it — because its fields are host
// wall-clock measurements, and Snapshot's byte stream doubles as the run's
// determinism fingerprint.
type StatsReply struct {
	Snapshot
	Sync SyncStats `json:"sync"`
}

// Handler returns the wire dispatcher to plug into control.NewWireServer.
func (s *Service) Handler() control.Handler {
	return func(req control.WireRequest, emit func(control.WireResponse) bool) {
		s.dispatch(req, emit)
	}
}

func (s *Service) dispatch(req control.WireRequest, emit func(control.WireResponse) bool) {
	switch req.Op {
	case "hello", "grant", "release", "set_active", "set_rate", "set_weight", "list":
		emit(s.Do(func(f *Fabric) control.WireResponse {
			resp, _ := control.DispatchController(f.Ctrl(), f.LookupTable, req)
			return resp
		}))

	case "attach":
		spec := LoadSpec{
			Tenant:   req.Tenant,
			AQ:       packet.AQID(req.ID), // the granted AQ to tag flows with
			Kind:     req.Kind,
			Size:     req.Size,
			Load:     req.Load,
			Seed:     req.Seed,
			CC:       req.CC,
			Entities: req.Entities,
		}
		emit(s.Do(func(f *Fabric) control.WireResponse {
			d, err := f.Attach(spec)
			if err != nil {
				return control.Errf(control.CodeBadRequest, "%v", err)
			}
			resp := dataResponse(d.Snap())
			resp.ID = d.ID // the driver id, for detach
			return resp
		}))

	case "detach":
		emit(s.Do(func(f *Fabric) control.WireResponse {
			if !f.Detach(req.ID) {
				return control.Errf(control.CodeUnknownID, "no attached driver %d", req.ID)
			}
			return control.WireResponse{OK: true, ID: req.ID}
		}))

	case "stats":
		emit(s.Do(func(f *Fabric) control.WireResponse {
			return dataResponse(StatsReply{
				Snapshot: f.Snapshot(true),
				Sync:     f.SyncStats(),
			})
		}))

	case "watch":
		n := req.Count
		if n <= 0 {
			n = 1
		}
		if n > maxWatch {
			n = maxWatch
		}
		ch, cancel := s.Subscribe()
		defer cancel()
		for i := 0; i < n; i++ {
			snap, ok := <-ch
			if !ok {
				emit(control.Errf(control.CodeShuttingDown, "service shutting down"))
				return
			}
			if !emit(dataResponse(snap)) {
				return
			}
		}

	case "trace":
		n := req.Count
		if n <= 0 {
			n = 100
		}
		emit(s.Do(func(f *Fabric) control.WireResponse {
			return dataResponse(struct {
				Events []TraceEvent `json:"events"`
			}{Events: f.TraceTail(n)})
		}))

	case "fingerprint":
		emit(s.Do(func(f *Fabric) control.WireResponse {
			return dataResponse(struct {
				Window      uint64 `json:"window"`
				NowNS       int64  `json:"now_ns"`
				Fingerprint string `json:"fingerprint"`
			}{Window: f.Window(), NowNS: int64(f.Now()), Fingerprint: f.Fingerprint()})
		}))

	case "pause":
		s.Pause()
		emit(control.WireResponse{OK: true})

	case "resume":
		s.Resume()
		emit(control.WireResponse{OK: true})

	case "step":
		if err := s.Step(req.Count); err != nil {
			emit(errResponse(err))
			return
		}
		emit(dataResponse(s.Latest()))

	case "advance":
		if err := s.AdvanceTo(sim.Time(req.UntilNS)); err != nil {
			emit(errResponse(err))
			return
		}
		emit(dataResponse(s.Latest()))

	case "quit":
		// Acknowledge first — the client's read must not race the
		// listener teardown the quit hook performs.
		emit(control.WireResponse{OK: true})
		s.Quit()
		s.runQuitHook()

	default:
		emit(control.Errf(control.CodeUnknownOp, "unknown op %q", req.Op))
	}
}

// SetOnQuit installs a hook run once after a wire "quit" stopped the
// loop; cmd/aqsimd uses it to close the listener and exit.
func (s *Service) SetOnQuit(fn func()) {
	s.mu.Lock()
	s.onQuit = fn
	s.mu.Unlock()
}

func (s *Service) runQuitHook() {
	s.mu.Lock()
	fn := s.onQuit
	s.onQuit = nil
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func errResponse(err error) control.WireResponse {
	switch err {
	case ErrNotPaused:
		return control.Errf(control.CodeNotPaused, "%v", err)
	case ErrShuttingDown:
		return control.Errf(control.CodeShuttingDown, "%v", err)
	default:
		return control.Errf(control.CodeBadRequest, "%v", err)
	}
}

// dataResponse marshals v into an OK response's data payload.
func dataResponse(v any) control.WireResponse {
	b, err := json.Marshal(v)
	if err != nil {
		return control.Errf(control.CodeInternal, "encoding payload: %v", err)
	}
	return control.WireResponse{OK: true, Data: b}
}
