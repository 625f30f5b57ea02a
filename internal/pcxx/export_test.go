package pcxx

// SetRotatingResume switches the barrier resume order for a test: on
// restores the historical rotating order (the last arriver keeps
// running), off the id order. It returns a function that undoes the
// switch. The order is process-wide, so callers must not run in parallel
// with other measurements.
func SetRotatingResume(on bool) (restore func()) {
	prev := rotateResume
	rotateResume = on
	return func() { rotateResume = prev }
}
