// Package netproxy mounts at internal/mnet/netproxy, inside the
// collection tier: the per-site walk is the only verdict on the sites it
// models, and a spawn that parks on something it does not model — a
// bodiless target it cannot enter, or a sync Wait or time.Sleep on the
// spawned path — is still judged at the go statement.
package netproxy

import (
	"net"
	"sync"
	"time"
)

// WaitAll parks a goroutine on a bodiless blocking leaf the walk cannot
// enter: flagged at the go statement.
func WaitAll(wg *sync.WaitGroup) {
	go wg.Wait() // want ctxflow
}

// Cleanup waits on a group inside a literal: no site the walk models, a
// leaf it does not, and no exit discipline — flagged at the go
// statement.
func Cleanup(wg *sync.WaitGroup, cleanup func()) {
	go func() { // want ctxflow
		wg.Wait()
		cleanup()
	}()
}

// Flusher sleeps in a loop one call down the spawned path: the finding
// lands on the go statement.
func Flusher(flush func()) {
	go flushEvery(flush) // want ctxflow
}

func flushEvery(flush func()) {
	for {
		time.Sleep(time.Second)
		flush()
	}
}

// StoppableFlusher sleeps in a loop but polls a stop channel each
// round: silent.
func StoppableFlusher(stop chan struct{}, flush func()) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(time.Second)
			flush()
		}
	}()
}

// Park spawns a body whose receive the walk flags; the go statement is
// not reported a second time, though the body also waits on a group.
func Park(jobs chan int, wg *sync.WaitGroup) {
	go func() {
		<-jobs // want ctxflow
		wg.Wait()
	}()
}

// Reap is the dial-reaper shape: the function spawns a dialer that
// sends exactly one result into a buffered channel it made, and a reaper
// that receives it. The rule bounds a receive from an own buffered
// channel on the assumption that such a sender exists; it cannot see
// that the dialer sends on every path. Silent.
func Reap(dial func() int) {
	ch := make(chan int, 1)
	go func() {
		ch <- dial()
	}()
	go func() {
		<-ch
	}()
}

// AcceptPush hands each accepted conn to a channel from a spawned accept
// loop. The walk reaches both sites: the ungated Accept is its verdict,
// and the send, which the hot-loop send rule also flags, keeps that
// rule's message.
func AcceptPush(ln net.Listener, conns chan net.Conn) {
	go func() {
		for {
			c, err := ln.Accept() // want ctxflow
			if err != nil {
				return
			}
			conns <- c // want ctxflow
		}
	}()
}
