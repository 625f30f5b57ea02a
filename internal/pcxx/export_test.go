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

// SetMaxRecorded lowers the events a run may record, so a test reaches
// the recorder's bound without recording trace.MaxTraceEvents events. It
// returns a function that undoes the change. The bound is process-wide,
// so callers must not run in parallel with other measurements.
func SetMaxRecorded(n int64) (restore func()) {
	prev := maxRecorded
	maxRecorded = n
	return func() { maxRecorded = prev }
}
