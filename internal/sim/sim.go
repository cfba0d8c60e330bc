// Package sim implements a small deterministic discrete-event simulation
// kernel. Simulated activities run as goroutine-backed processes under a
// virtual clock: at any instant exactly one process executes, and control is
// handed between the scheduler and processes explicitly, so runs are fully
// reproducible given the same inputs.
//
// The kernel provides three coordination primitives that mirror what the
// Cooperative Scans paper needs from its runtime: virtual-time sleeps
// (disk transfers, CPU work), counting Resources (the disk arm, CPU cores)
// and Signals (ABM "chunk loaded" / "query available" wakeups).
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, add processes with Process, then call Run.
type Env struct {
	now     float64
	queue   eventHeap
	seq     int64
	procSeq int64

	// sched is the handoff channel: a running process sends on it when it
	// blocks or terminates, returning control to the scheduler loop.
	sched chan struct{}

	running  bool
	procs    []*Proc // all processes ever created, for deadlock reporting
	liveProc int     // processes started and not yet finished

	// Pace, when positive, makes Run sleep Pace×(virtual delta) of wall time
	// between events, letting examples animate a simulation in real time.
	Pace float64
}

// NewEnv returns an empty simulation environment at virtual time zero.
func NewEnv() *Env {
	return &Env{sched: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

type event struct {
	time float64
	seq  int64
	proc *Proc
}

// eventHeap is a typed binary min-heap ordered by (time, seq). The key is
// unique per event, so pop order is fully determined by the comparison and
// independent of the heap's internal arrangement. A typed implementation
// (instead of container/heap) avoids boxing an event into an interface on
// every push and pop — the single hottest allocation site of a simulation.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

func (h eventHeap) Len() int { return len(h) }

func (e *Env) schedule(p *Proc, at float64) {
	e.seq++
	e.queue.push(event{time: at, seq: e.seq, proc: p})
}

// ProcState describes what a process is currently doing; used for deadlock
// diagnostics and tests.
type ProcState int

// Process states.
const (
	StateNew      ProcState = iota // created, not yet run
	StateRunning                   // currently executing
	StateSleeping                  // waiting for a scheduled event
	StateBlocked                   // waiting on a Signal or Resource
	StateDone                      // function returned
)

func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return "invalid"
}

// Proc is a simulation process. The function passed to Env.Process receives
// the Proc and uses it to wait, acquire resources and block on signals.
type Proc struct {
	env     *Env
	name    string
	id      int64
	wake    chan struct{}
	state   ProcState
	started bool
	fn      func(*Proc)

	// blockedOn names the primitive this process is blocked on, for
	// deadlock reports.
	blockedOn string
}

// Name returns the process name given to Env.Process.
func (p *Proc) Name() string { return p.name }

// State returns the process's current state.
func (p *Proc) State() ProcState { return p.state }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time; shorthand for p.Env().Now().
func (p *Proc) Now() float64 { return p.env.now }

// Process registers a new process that starts (at the current virtual time)
// when the scheduler next reaches it. It may be called before Run or from
// within a running process.
func (e *Env) Process(name string, fn func(*Proc)) *Proc {
	return e.ProcessAt(name, 0, fn)
}

// ProcessAt registers a new process whose body starts after delay seconds of
// virtual time.
func (e *Env) ProcessAt(name string, delay float64, fn func(*Proc)) *Proc {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: ProcessAt(%q) with invalid delay %v", name, delay))
	}
	e.procSeq++
	p := &Proc{env: e, name: name, id: e.procSeq, wake: make(chan struct{}), fn: fn}
	e.procs = append(e.procs, p)
	e.liveProc++
	e.schedule(p, e.now+delay)
	return p
}

// run is the goroutine body wrapping the user function.
func (p *Proc) run() {
	// Deferred so that a body ending in runtime.Goexit (a test's t.Fatal)
	// still hands control back instead of wedging the scheduler.
	defer func() {
		p.state = StateDone
		p.env.liveProc--
		p.env.sched <- struct{}{}
	}()
	p.fn(p)
}

// yield hands control back to the scheduler and blocks until this process is
// woken by its next event.
func (p *Proc) yield() {
	p.env.sched <- struct{}{}
	<-p.wake
	p.state = StateRunning
	p.blockedOn = ""
}

// Wait advances this process by d seconds of virtual time. d must be
// non-negative and finite.
func (p *Proc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: %s: Wait(%v)", p.name, d))
	}
	p.env.schedule(p, p.env.now+d)
	p.state = StateSleeping
	p.yield()
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still blocked on Signals or Resources.
type DeadlockError struct {
	// Blocked lists "name (waiting on X)" for each stuck process.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d process(es) blocked: %v", len(e.Blocked), e.Blocked)
}

// Run executes the simulation until the event queue is empty or until
// virtual time would exceed horizon (use math.Inf(1) or 0 for no horizon).
// It returns a *DeadlockError if processes remain blocked with no pending
// events, and nil otherwise.
func (e *Env) Run(horizon float64) error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if horizon <= 0 {
		horizon = math.Inf(1)
	}
	e.running = true
	defer func() { e.running = false }()

	for e.queue.Len() > 0 {
		ev := e.queue.pop()
		if ev.time > horizon {
			// Push back so a later Run with a larger horizon can continue.
			e.queue.push(ev)
			return nil
		}
		if ev.proc.state == StateDone {
			continue // stale event for a finished process
		}
		if e.Pace > 0 && ev.time > e.now {
			time.Sleep(time.Duration((ev.time - e.now) * e.Pace * float64(time.Second)))
		}
		e.now = ev.time
		p := ev.proc
		if !p.started {
			p.started = true
			p.state = StateRunning
			go p.run()
		} else {
			p.wake <- struct{}{}
		}
		<-e.sched
	}

	var blocked []string
	for _, p := range e.procs {
		if p.state == StateBlocked {
			blocked = append(blocked, fmt.Sprintf("%s (waiting on %s)", p.name, p.blockedOn))
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// LiveProcs returns the number of processes that have been created and have
// not yet finished.
func (e *Env) LiveProcs() int { return e.liveProc }
