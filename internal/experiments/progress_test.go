package experiments

import (
	"sync"
	"testing"
	"time"
)

func TestThrottleProgress(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	var got [][2]int
	fn := throttleProgress(100*time.Millisecond, func(done, total int) {
		got = append(got, [2]int{done, total})
	}, clock)

	// A fast sweep: 50 updates inside one throttle window. Only the
	// first and the terminal one may pass.
	for i := 1; i <= 50; i++ {
		fn(i, 50)
	}
	if len(got) != 2 || got[0] != [2]int{1, 50} || got[1] != [2]int{50, 50} {
		t.Fatalf("deliveries = %v, want [[1 50] [50 50]]", got)
	}

	// Time advancing past the interval re-opens the gate.
	got = nil
	now = now.Add(150 * time.Millisecond)
	fn(3, 10)
	fn(4, 10) // same instant: suppressed
	now = now.Add(99 * time.Millisecond)
	fn(5, 10) // inside the window: suppressed
	now = now.Add(1 * time.Millisecond)
	fn(6, 10) // window over: delivered
	if len(got) != 2 || got[0] != [2]int{3, 10} || got[1] != [2]int{6, 10} {
		t.Fatalf("deliveries = %v, want [[3 10] [6 10]]", got)
	}

	// Terminal updates always pass, even back-to-back (one per sweep of
	// a multi-sweep campaign).
	got = nil
	fn(10, 10)
	fn(8, 8)
	if len(got) != 2 {
		t.Fatalf("terminal deliveries = %v, want both", got)
	}
}

func TestThrottleProgressZeroInterval(t *testing.T) {
	calls := 0
	fn := ThrottleProgress(0, func(done, total int) { calls++ })
	fn(1, 3)
	fn(2, 3)
	if calls != 2 {
		t.Fatalf("zero interval must not throttle; calls = %d", calls)
	}
}

// TestThrottleProgressConcurrent: the wrapper must stay safe under the
// concurrent delivery the sweep pool produces (race detector checks).
func TestThrottleProgressConcurrent(t *testing.T) {
	var mu sync.Mutex
	seen := 0
	fn := ThrottleProgress(time.Millisecond, func(done, total int) {
		mu.Lock()
		seen++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				fn(i*100+j, 100000)
			}
		}(i)
	}
	wg.Wait()
	fn(100000, 100000)
	mu.Lock()
	defer mu.Unlock()
	if seen == 0 {
		t.Fatal("no deliveries at all")
	}
}

// TestProgressCountsFailedCells: a collect sweep with a failed cell
// still reaches total/total, so the throttled heartbeat's final 100%
// line prints. One worker keeps the delivery order deterministic.
func TestProgressCountsFailedCells(t *testing.T) {
	res := &Resilience{Mode: FailCollect}
	if err := res.SetInject("error:0"); err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	o := Options{Quick: true, Instr: 4000, Parallelism: 1, Res: res,
		Progress: func(done, total int) { got = append(got, [2]int{done, total}) }}
	if _, err := Headline(o); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1] != [2]int{6, 6} {
		t.Fatalf("progress calls = %v, want the last to be [6 6]", got)
	}
}
