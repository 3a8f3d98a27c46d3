package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"uoivar/internal/fault"
)

// runDeadline guards a Run call with a hard test deadline: a deadlock in
// the fault-tolerance layer fails the test instead of hanging the suite.
func runDeadline(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("run did not finish within %v (deadlock?)", d)
		return nil
	}
}

func TestCrashedRankSurfacesTypedError(t *testing.T) {
	plan := fault.NewPlan(4, fault.Event{Kind: fault.Crash, Rank: 1, Op: 2})
	err := runDeadline(t, 30*time.Second, func() error {
		return RunWithOptions(4, RunOptions{CollectiveTimeout: 10 * time.Second, Fault: plan}, func(c *Comm) error {
			for i := 0; i < 10; i++ {
				c.AllreduceScalar(OpSum, 1)
			}
			return nil
		})
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("err = %v, want ErrRankFailed in chain", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want fault.ErrInjected in chain", err)
	}
}

func TestBodyErrorBreaksBarriers(t *testing.T) {
	sentinel := errors.New("rank body failure")
	start := time.Now()
	err := runDeadline(t, 30*time.Second, func() error {
		return RunWithOptions(4, RunOptions{CollectiveTimeout: time.Minute}, func(c *Comm) error {
			if c.Rank() == 2 {
				return sentinel
			}
			c.Barrier()
			return nil
		})
	})
	if !errors.Is(err, sentinel) || !errors.Is(err, ErrRankFailed) {
		t.Fatalf("err = %v, want sentinel and ErrRankFailed", err)
	}
	// The survivors must unwind via the broken barrier long before the
	// one-minute deadline.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("survivors took %v to unwind", elapsed)
	}
}

func TestCollectiveTimeout(t *testing.T) {
	err := runDeadline(t, 30*time.Second, func() error {
		return RunWithOptions(3, RunOptions{CollectiveTimeout: 200 * time.Millisecond}, func(c *Comm) error {
			if c.Rank() == 1 {
				// Clean exit without ever joining the barrier: an SPMD bug
				// that used to deadlock forever.
				return nil
			}
			c.Barrier()
			return nil
		})
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRecvFromFailedRankUnblocks(t *testing.T) {
	sentinel := errors.New("dead sender")
	err := runDeadline(t, 30*time.Second, func() error {
		return RunWithOptions(2, RunOptions{CollectiveTimeout: time.Minute}, func(c *Comm) error {
			if c.Rank() == 1 {
				return sentinel
			}
			c.Recv(1, 5)
			return nil
		})
	})
	if !errors.Is(err, sentinel) || !errors.Is(err, ErrRankFailed) {
		t.Fatalf("err = %v, want sentinel and ErrRankFailed", err)
	}
}

func TestStragglerCompletes(t *testing.T) {
	plan := fault.NewPlan(4, fault.Event{Kind: fault.Straggle, Rank: 2, Op: 0, Delay: time.Millisecond})
	err := runDeadline(t, 30*time.Second, func() error {
		return RunWithOptions(4, RunOptions{CollectiveTimeout: 10 * time.Second, Fault: plan}, func(c *Comm) error {
			for i := 0; i < 5; i++ {
				if got := c.AllreduceScalar(OpSum, 1); got != 4 {
					return fmt.Errorf("round %d: got %v", i, got)
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("straggler run failed: %v", err)
	}
}

func TestHealthTracksFailedRank(t *testing.T) {
	sentinel := errors.New("tracked failure")
	err := runDeadline(t, 30*time.Second, func() error {
		return RunWithOptions(2, RunOptions{CollectiveTimeout: time.Minute}, func(c *Comm) error {
			if c.Rank() == 1 {
				return sentinel
			}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if c.Health()[1] == RankFailed {
					return nil
				}
				time.Sleep(time.Millisecond)
			}
			return errors.New("rank 1 never reported failed")
		})
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel only", err)
	}
	if msg := err.Error(); len(msg) == 0 {
		t.Fatal("empty aggregated error")
	}
}

func TestRunJoinsAllRankErrors(t *testing.T) {
	errA := errors.New("failure A")
	errB := errors.New("failure B")
	err := runDeadline(t, 30*time.Second, func() error {
		return Run(4, func(c *Comm) error {
			switch c.Rank() {
			case 1:
				return errA
			case 3:
				return errB
			}
			return nil
		})
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both rank errors joined", err)
	}
}

func TestStatsHealthAfterCleanRun(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		c.Barrier()
		states := c.Health()
		if len(states) != 3 {
			return fmt.Errorf("health has %d entries", len(states))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicCrashOutcome replays the same seeded schedule and
// demands an identical aggregated outcome both times.
func TestDeterministicCrashOutcome(t *testing.T) {
	run := func() error {
		plan := fault.NewPlan(4, fault.Event{Kind: fault.Crash, Rank: 2, Op: 7})
		return RunWithOptions(4, RunOptions{CollectiveTimeout: 10 * time.Second, Fault: plan}, func(c *Comm) error {
			for i := 0; i < 20; i++ {
				c.AllreduceScalar(OpSum, float64(i))
			}
			return nil
		})
	}
	var first error
	for i := 0; i < 3; i++ {
		err := runDeadline(t, 30*time.Second, run)
		if err == nil {
			t.Fatal("crash schedule must fail the run")
		}
		if i == 0 {
			first = err
			continue
		}
		if err.Error() != first.Error() {
			t.Fatalf("run %d outcome differs:\n%v\nvs\n%v", i, err, first)
		}
	}
}
