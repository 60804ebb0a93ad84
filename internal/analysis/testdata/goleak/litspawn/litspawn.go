// Package litspawn repeats the flagged literal spawn with stdlib-only
// imports so the scope test can remount it outside the audited
// packages and demand silence.
package litspawn

// Leak blocks on a bare receive with no exit discipline.
func Leak() {
	hold := make(chan int)
	go func() { // want ctxflow
		<-hold
	}()
}
