package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopNeverExceedsClients(t *testing.T) {
	const clients, items = 3, 60
	var active, peak, done atomic.Int64
	closedLoop(clients, time.Now().Add(time.Minute), sequence(items), func(c, i int) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		done.Add(1)
	})
	if peak.Load() > clients {
		t.Fatalf("%d operations in flight at once; the loop has %d clients", peak.Load(), clients)
	}
	if done.Load() != items {
		t.Fatalf("did %d items, want %d", done.Load(), items)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	var done atomic.Int64
	start := time.Now()
	closedLoop(2, start.Add(50*time.Millisecond), func() (int, bool) { return 0, true }, func(c, i int) {
		time.Sleep(5 * time.Millisecond)
		done.Add(1)
	})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("closed loop ran %v past a 50ms deadline", el)
	}
	if done.Load() == 0 {
		t.Fatal("no work done before the deadline")
	}
}
