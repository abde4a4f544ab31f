// Test files are skipped: tests may freely spawn goroutines, so nothing
// here is flagged.
package sim

import "testing"

func TestConcurrentStep(t *testing.T) {
	e := &Engine{}
	done := make(chan struct{})
	go func() {
		e.Step()
		close(done)
	}()
	<-done
}
