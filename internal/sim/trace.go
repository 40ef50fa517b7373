package sim

// Tracer observes lifecycle events that actors on a kernel report
// through Kernel.Tracer. Implementations must not call back into the
// kernel.
type Tracer interface {
	// Event records a named occurrence at simulated time t. args are
	// free-form context values.
	Event(t Time, kind string, args ...any)
}
