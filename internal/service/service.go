package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"aqueue/internal/control"
	"aqueue/internal/sim"
)

// Run-control errors, mapped to wire codes by the dispatcher.
var (
	// ErrNotPaused rejects a step while the fabric free-runs.
	ErrNotPaused = errors.New("service: not paused")
	// ErrShuttingDown rejects work submitted after Quit.
	ErrShuttingDown = errors.New("service: shutting down")
)

// RunConfig tunes the Service run loop (not the fabric it drives).
type RunConfig struct {
	// Pace throttles the loop to Pace simulated seconds per wall second;
	// 1 is real time, 0 runs as fast as possible.
	Pace float64
	// StartPaused starts the loop at window 0 waiting for run-control
	// commands instead of free-running.
	StartPaused bool
}

// Boundary is one published window boundary: its snapshot and the
// json.Marshal bytes of it that the fingerprint folded, which the step,
// advance and watch replies carry as they are.
type Boundary struct {
	Snapshot
	Enc json.RawMessage `json:"-"`
}

// command is one queued mutation: executed by the loop goroutine at a
// window boundary, its response handed back to the waiting caller.
type command struct {
	fn   func(*Fabric) control.WireResponse
	resp chan control.WireResponse
}

// Service owns a Fabric's run loop. All fabric access is funneled through
// the loop goroutine: mutations submitted with Do are queued in a mailbox
// the loop drains only between windows, so no change ever lands inside a
// window — the invariant the determinism gates rely on. Telemetry readers
// never touch the fabric either; they read the immutable Snapshot values
// the loop publishes at each boundary.
type Service struct {
	f   *Fabric
	cfg RunConfig

	mu   sync.Mutex
	cond *sync.Cond
	cmds []*command

	paused bool
	steps  uint64   // windows still to advance while paused
	target sim.Time // advance-to deadline; 0 = none
	quit   bool

	last    Boundary // latest published boundary
	subs    map[int]chan Boundary
	nextSub int

	onQuit func() // wire "quit" hook, see SetOnQuit

	done chan struct{}
}

// Start builds the run loop around f and launches it.
func Start(f *Fabric, cfg RunConfig) *Service {
	s := &Service{
		f:      f,
		cfg:    cfg,
		paused: cfg.StartPaused,
		subs:   make(map[int]chan Boundary),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

func (s *Service) loop() {
	s.mu.Lock()
	for {
		// A loop iteration always starts at a window boundary: drain the
		// mailbox here and nowhere else.
		s.drainLocked()
		if s.quit {
			break
		}
		advance := false
		switch {
		case s.steps > 0:
			s.steps--
			advance = true
		case !s.paused:
			if s.target > 0 && s.f.Now() >= s.target {
				// advance-to reached its deadline: park.
				s.paused, s.target = true, 0
				s.cond.Broadcast()
				continue
			}
			advance = true
		}
		if !advance {
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		start := time.Now()
		b := Boundary{Snapshot: s.f.AdvanceWindow(), Enc: s.f.enc}
		if s.cfg.Pace > 0 {
			wall := time.Duration(float64(s.f.cfg.Window) / s.cfg.Pace)
			if d := wall - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
		s.mu.Lock()
		s.last = b
		for _, ch := range s.subs {
			select {
			case ch <- b:
			default: // slow subscriber: drop rather than stall the fabric
			}
		}
		s.cond.Broadcast()
	}
	// Shutdown: answer whatever is still queued, wake every waiter, end
	// every stream.
	for _, c := range s.cmds {
		c.resp <- control.Errf(control.CodeShuttingDown, "service shutting down")
	}
	s.cmds = nil
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.done)
}

func (s *Service) drainLocked() {
	for len(s.cmds) > 0 {
		c := s.cmds[0]
		s.cmds = s.cmds[1:]
		c.resp <- c.fn(s.f)
	}
}

// Do queues a mutation and blocks until the loop executes it at the next
// window boundary. fn runs on the loop goroutine with exclusive fabric
// access; it must not call back into Service.
func (s *Service) Do(fn func(*Fabric) control.WireResponse) control.WireResponse {
	c := &command{fn: fn, resp: make(chan control.WireResponse, 1)}
	s.mu.Lock()
	if s.quit {
		s.mu.Unlock()
		return control.Errf(control.CodeShuttingDown, "service shutting down")
	}
	s.cmds = append(s.cmds, c)
	s.cond.Broadcast()
	s.mu.Unlock()
	return <-c.resp
}

// Latest returns the most recently published boundary.
func (s *Service) Latest() Boundary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Paused reports whether the loop is parked at a boundary.
func (s *Service) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// Pause parks the loop at the next window boundary (the window being
// simulated completes first).
func (s *Service) Pause() {
	s.mu.Lock()
	s.paused = true
	s.target = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Resume restarts free-running.
func (s *Service) Resume() {
	s.mu.Lock()
	s.paused = false
	s.target = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Step advances a paused fabric by n windows (n<1 means 1) and returns
// once they completed.
func (s *Service) Step(n int) error {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quit {
		return ErrShuttingDown
	}
	if !s.paused {
		return ErrNotPaused
	}
	s.steps += uint64(n)
	target := s.last.Window + s.steps
	s.cond.Broadcast()
	for s.last.Window < target && !s.quit {
		s.cond.Wait()
	}
	if s.last.Window < target {
		return ErrShuttingDown
	}
	return nil
}

// AdvanceTo free-runs until simulated time reaches t (the first boundary
// at or past it), then pauses. It blocks until the target is reached.
func (s *Service) AdvanceTo(t sim.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quit {
		return ErrShuttingDown
	}
	if t <= sim.Time(s.last.NowNS) {
		return fmt.Errorf("target %d ns not ahead of now %d ns", t, s.last.NowNS)
	}
	s.target = t
	s.paused = false
	s.cond.Broadcast()
	for sim.Time(s.last.NowNS) < t && !s.quit {
		s.cond.Wait()
	}
	if sim.Time(s.last.NowNS) < t {
		return ErrShuttingDown
	}
	return nil
}

// Subscribe registers a boundary stream (buffered; the loop drops frames
// a slow reader misses rather than stalling). The channel closes on
// shutdown. Call cancel when done.
func (s *Service) Subscribe() (<-chan Boundary, func()) {
	ch := make(chan Boundary, 64)
	s.mu.Lock()
	if s.quit {
		close(ch)
		s.mu.Unlock()
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		if s.subs != nil {
			delete(s.subs, id)
		}
		s.mu.Unlock()
	}
}

// Quit stops the loop at the next boundary and waits for it to exit.
// Pending mailbox commands are answered with CodeShuttingDown.
func (s *Service) Quit() {
	s.mu.Lock()
	s.quit = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// Done closes once the loop has exited.
func (s *Service) Done() <-chan struct{} { return s.done }
