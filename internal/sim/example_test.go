package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// Example drives a one-server queue with plain callbacks: the server is
// a small state machine that records whether it is busy and schedules
// its own completion events, the way the merge engine and disk model
// run on the kernel.
func Example() {
	k := sim.New()
	const service = 10 * sim.Millisecond
	var queue []string
	busy := false

	var serveNext func()
	serveNext = func() {
		if len(queue) == 0 {
			busy = false
			return
		}
		name := queue[0]
		queue = queue[1:]
		busy = true
		k.After(service, func() {
			fmt.Printf("%s served at %v\n", name, k.Now())
			serveNext()
		})
	}
	arrive := func(name string) {
		queue = append(queue, name)
		if !busy {
			serveNext()
		}
	}

	k.At(0, func() { arrive("client-0") })
	k.At(0, func() { arrive("client-1") })
	k.At(25*sim.Millisecond, func() { arrive("client-2") })
	if err := k.Run(); err != nil {
		panic(err)
	}
	// Output:
	// client-0 served at 10ms
	// client-1 served at 20ms
	// client-2 served at 35ms
}
