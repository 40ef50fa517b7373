package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	var order []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		tt := at
		k.At(tt, func() { order = append(order, tt) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := New()
	var at Time
	k.At(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

// TestAfterZeroYields pins the ordering rule the merge engine's wakes
// rely on: an event scheduled with After(0) from inside an event runs
// after every event already pending at that instant.
func TestAfterZeroYields(t *testing.T) {
	k := New()
	var log []string
	k.At(5, func() {
		log = append(log, "a")
		k.After(0, func() { log = append(log, "a-wake") })
	})
	k.At(5, func() { log = append(log, "b") })
	k.At(5, func() {
		k.After(0, func() { log = append(log, "c-wake") })
		log = append(log, "c")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(log), "[a b c a-wake c-wake]"; got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
}

// mustPanicAt10 runs schedule from an event at time 10 and fails the
// test unless it panics.
func mustPanicAt10(t *testing.T, what string, schedule func(k *Kernel)) {
	t.Helper()
	k := New()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		schedule(k)
	})
	_ = k.Run()
}

func TestSchedulingInPastPanics(t *testing.T) {
	mustPanicAt10(t, "At before now", func(k *Kernel) { k.At(5, func() {}) })
}

func TestAfterNegativePanics(t *testing.T) {
	mustPanicAt10(t, "negative After", func(k *Kernel) { k.After(-1, func() {}) })
}

func TestRunUntilHorizon(t *testing.T) {
	k := New()
	fired := map[Time]bool{}
	for _, at := range []Time{1, 2, 3, 10, 20} {
		tt := at
		k.At(tt, func() { fired[tt] = true })
	}
	if err := k.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !fired[1] || !fired[2] || !fired[3] || fired[10] || fired[20] {
		t.Fatalf("wrong events fired: %v", fired)
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want horizon 5", k.Now())
	}
	// Resume to the end.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired[20] || k.Now() != 20 {
		t.Fatalf("resume failed: now=%v fired=%v", k.Now(), fired)
	}
}

func TestStop(t *testing.T) {
	k := New()
	ran := 0
	k.At(1, func() { ran++; k.Stop() })
	k.At(2, func() { ran++ })
	if err := k.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestHeapPropertyQuick(t *testing.T) {
	// Property: any multiset of (time, insertion index) pairs comes out
	// sorted by (time, insertion order).
	err := quick.Check(func(raw []uint16) bool {
		k := New()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, r := range raw {
			at := Time(r % 64)
			i := i
			k.At(at, func() { got = append(got, rec{at, i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		want := make([]rec, len(got))
		copy(want, got)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].idx < want[b].idx
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicReplay runs two self-rescheduling callback chains
// that meet at t=6 and requires the same interleaving on every replay:
// at the shared instant, b's event (scheduled at t=3) precedes a's
// (scheduled at t=4).
func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		k := New()
		var log []string
		chain := func(name string, period Time) {
			left := 5
			var tick func()
			tick = func() {
				log = append(log, fmt.Sprintf("%s@%v", name, k.Now()))
				if left--; left > 0 {
					k.After(period, tick)
				}
			}
			k.After(period, tick)
		}
		chain("a", 2)
		chain("b", 3)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	want := "[a@2ms b@3ms a@4ms b@6ms a@6ms a@8ms b@9ms a@10ms b@12ms b@15ms]"
	if got := fmt.Sprint(first); got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("replay length differs")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("replay diverged at %d: %v vs %v", i, first, again)
			}
		}
	}
}

// TestDeadlockDetection covers the liveness accounting: an actor that
// is retained and never released leaves Run with ErrDeadlock once the
// calendar drains, and releasing it lets Run end cleanly.
func TestDeadlockDetection(t *testing.T) {
	for _, release := range []bool{false, true} {
		k := New()
		k.Retain()
		k.After(5, func() {
			if release {
				k.Release()
			}
		})
		err := k.Run()
		if release && err != nil {
			t.Fatalf("released actor: err = %v, want nil", err)
		}
		if !release && err != ErrDeadlock {
			t.Fatalf("unreleased actor: err = %v, want ErrDeadlock", err)
		}
	}
}

func TestTimeString(t *testing.T) {
	if s := Ms(3.5).String(); s != "3.5ms" {
		t.Fatalf("Ms(3.5) = %q", s)
	}
	if s := (20 * Second).String(); s != "20s" {
		t.Fatalf("20s = %q", s)
	}
	if Ms(1500).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if (2 * Millisecond).Milliseconds() != 2 {
		t.Fatal("Milliseconds conversion wrong")
	}
}
