package dfix

// Background spawns a goroutine from sim-scoped code, racing the
// engine's single goroutine.
func Background(work func()) {
	go work() // want determinism "go statement"
}

// Inline runs the same work on the caller's goroutine, which stays legal.
func Inline(work func()) { work() }
