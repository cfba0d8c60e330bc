package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

func TestWaitAdvancesClock(t *testing.T) {
	env := NewEnv()
	var at []float64
	env.Process("a", func(p *Proc) {
		p.Wait(1.5)
		at = append(at, p.Now())
		p.Wait(0.5)
		at = append(at, p.Now())
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.0}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("wake %d at %v, want %v", i, at[i], want[i])
		}
	}
	if env.Now() != 2.0 {
		t.Errorf("final time %v, want 2.0", env.Now())
	}
}

func TestZeroWaitPreservesOrder(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Process(name, func(p *Proc) {
			p.Wait(0)
			order = append(order, name)
		})
	}
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Errorf("order = %s, want [a b c]", got)
	}
}

func TestProcessAtDelay(t *testing.T) {
	env := NewEnv()
	var start float64 = -1
	env.ProcessAt("late", 3.25, func(p *Proc) { start = p.Now() })
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if start != 3.25 {
		t.Errorf("started at %v, want 3.25", start)
	}
}

// TestGoexitEndsProcess: a body that leaves through runtime.Goexit, as a
// t.Fatal inside a simulated process does, must end that process and let
// the rest of the simulation run instead of wedging the scheduler.
func TestGoexitEndsProcess(t *testing.T) {
	env := NewEnv()
	env.Process("quits", func(p *Proc) {
		p.Wait(1)
		runtime.Goexit()
	})
	done := false
	env.Process("other", func(p *Proc) {
		p.Wait(2)
		done = true
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done || env.LiveProcs() != 0 {
		t.Fatalf("done=%v live=%d after Run, want true/0", done, env.LiveProcs())
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	env := NewEnv()
	var childAt float64 = -1
	env.Process("parent", func(p *Proc) {
		p.Wait(1)
		env.ProcessAt("child", 2, func(c *Proc) { childAt = c.Now() })
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if childAt != 3 {
		t.Errorf("child ran at %v, want 3", childAt)
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	env := NewEnv()
	sig := env.NewSignal("data")
	var order []string
	for _, name := range []string{"w1", "w2"} {
		name := name
		env.Process(name, func(p *Proc) {
			sig.Wait(p)
			order = append(order, name+"@"+fmt.Sprint(p.Now()))
		})
	}
	env.ProcessAt("signaller", 5, func(p *Proc) {
		if !sig.Signal() {
			t.Error("Signal reported no waiter")
		}
		p.Wait(1)
		sig.Signal()
		if sig.Signal() {
			t.Error("Signal woke a process with empty wait list")
		}
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[w1@5 w2@6]" {
		t.Errorf("order = %s, want [w1@5 w2@6]", got)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	env := NewEnv()
	sig := env.NewSignal("go")
	woken := 0
	for i := 0; i < 4; i++ {
		env.Process(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	env.ProcessAt("b", 1, func(p *Proc) {
		if n := sig.Broadcast(); n != 4 {
			t.Errorf("Broadcast woke %d, want 4", n)
		}
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	sig := env.NewSignal("never")
	env.Process("stuck", func(p *Proc) { sig.Wait(p) })
	err := env.Run(0)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", de.Blocked)
	}
}

func TestResourceSerialises(t *testing.T) {
	env := NewEnv()
	res := env.NewResource("disk", 1)
	var done []float64
	for i := 0; i < 3; i++ {
		env.Process(fmt.Sprintf("q%d", i), func(p *Proc) {
			res.Use(p, 1, 2)
			done = append(done, p.Now())
		})
	}
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv()
	res := env.NewResource("cpu", 2)
	var done []float64
	for i := 0; i < 4; i++ {
		env.Process(fmt.Sprintf("q%d", i), func(p *Proc) {
			res.Use(p, 1, 3)
			done = append(done, p.Now())
		})
	}
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 3, 6, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	// A request for 2 units at the head of the queue must not be overtaken
	// by a later 1-unit request.
	env := NewEnv()
	res := env.NewResource("r", 2)
	var order []string
	env.Process("holder", func(p *Proc) {
		res.Acquire(p, 1)
		p.Wait(5)
		res.Release(1)
	})
	env.ProcessAt("big", 1, func(p *Proc) {
		res.Acquire(p, 2)
		order = append(order, fmt.Sprintf("big@%v", p.Now()))
		res.Release(2)
	})
	env.ProcessAt("small", 2, func(p *Proc) {
		res.Acquire(p, 1)
		order = append(order, fmt.Sprintf("small@%v", p.Now()))
		res.Release(1)
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	// small fits immediately at t=2 because big (head of queue) needs 2 and
	// only 1 is free... FIFO means small must wait behind big.
	if got := fmt.Sprint(order); got != "[big@5 small@5]" {
		t.Errorf("order = %s, want [big@5 small@5]", got)
	}
}

func TestResourceUtilisation(t *testing.T) {
	env := NewEnv()
	res := env.NewResource("cpu", 2)
	env.Process("a", func(p *Proc) { res.Use(p, 1, 4) })
	env.Process("idle", func(p *Proc) { p.Wait(8) })
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	// 1 unit busy for 4s out of 2 units × 8s = 0.25.
	if u := res.Utilisation(); math.Abs(u-0.25) > 1e-12 {
		t.Errorf("utilisation = %v, want 0.25", u)
	}
	if b := res.BusyTime(); math.Abs(b-4) > 1e-12 {
		t.Errorf("busy time = %v, want 4", b)
	}
}

func TestRunHorizonStopsAndResumes(t *testing.T) {
	env := NewEnv()
	var last float64
	env.Process("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(1)
			last = p.Now()
		}
	})
	if err := env.Run(4.5); err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Errorf("after horizon 4.5: last tick %v, want 4", last)
	}
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if last != 10 {
		t.Errorf("after full run: last tick %v, want 10", last)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() string {
		env := NewEnv()
		res := env.NewResource("disk", 1)
		sig := env.NewSignal("s")
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			env.ProcessAt(fmt.Sprintf("p%d", i), float64(i)*0.1, func(p *Proc) {
				res.Use(p, 1, 0.35)
				log = append(log, fmt.Sprintf("%s@%.2f", p.Name(), p.Now()))
				if i == 2 {
					sig.Broadcast()
				} else if i < 2 {
					sig.Wait(p)
					log = append(log, fmt.Sprintf("%s-woke@%.2f", p.Name(), p.Now()))
				}
			})
		}
		if err := env.Run(0); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	first := trace()
	for i := 0; i < 10; i++ {
		if got := trace(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestStateReporting(t *testing.T) {
	env := NewEnv()
	sig := env.NewSignal("x")
	p1 := env.Process("sleeper", func(p *Proc) { p.Wait(100) })
	p2 := env.Process("blocker", func(p *Proc) { sig.Wait(p) })
	env.ProcessAt("observer", 1, func(p *Proc) {
		if p1.State() != StateSleeping {
			t.Errorf("sleeper state = %v, want sleeping", p1.State())
		}
		if p2.State() != StateBlocked {
			t.Errorf("blocker state = %v, want blocked", p2.State())
		}
		sig.Broadcast()
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if p1.State() != StateDone || p2.State() != StateDone {
		t.Errorf("final states %v %v, want done", p1.State(), p2.State())
	}
	for s, want := range map[ProcState]string{StateNew: "new", StateRunning: "running",
		StateSleeping: "sleeping", StateBlocked: "blocked", StateDone: "done", ProcState(99): "invalid"} {
		if s.String() != want {
			t.Errorf("ProcState(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestLiveProcs(t *testing.T) {
	env := NewEnv()
	env.Process("a", func(p *Proc) { p.Wait(1) })
	env.Process("b", func(p *Proc) { p.Wait(2) })
	if got := env.LiveProcs(); got != 2 {
		t.Errorf("LiveProcs before run = %d, want 2", got)
	}
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := env.LiveProcs(); got != 0 {
		t.Errorf("LiveProcs after run = %d, want 0", got)
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	env := NewEnv()
	mustPanic("negative delay", func() { env.ProcessAt("x", -1, func(*Proc) {}) })
	mustPanic("zero capacity", func() { env.NewResource("r", 0) })
	res := env.NewResource("r", 1)
	mustPanic("over release", func() { res.Release(1) })
	env.Process("w", func(p *Proc) {
		mustPanic("negative wait", func() { p.Wait(-1) })
		mustPanic("inf wait", func() { p.Wait(math.Inf(1)) })
		mustPanic("acquire beyond capacity", func() { res.Acquire(p, 2) })
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
}
