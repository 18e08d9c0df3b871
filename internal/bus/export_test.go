package bus

import (
	"fmt"

	"lotterybus/internal/core"
)

// scanRequests rebuilds the request map from scratch, master by master,
// the way the cycle loops did before the bus kept it.
func (b *Bus) scanRequests() core.Bitset {
	var req core.Bitset
	for i := range b.masters {
		if b.masterPending(i) {
			req.Set(i)
		}
	}
	return req
}

// CheckRequestMap reports whether the request map the bus keeps agrees,
// at the current cycle, with a from-scratch scan: the queued bits match
// the queues, every master with a split outstanding or a backoff running
// is held, and the map the arbiter reads (Mask, Pending, PendingWords)
// equals the scan.
func (b *Bus) CheckRequestMap() error {
	for i, m := range b.masters {
		if q := m.queue.len() > 0; q != b.queued.Test(i) {
			return fmt.Errorf("master %d: queued bit %v, queue length %d", i, b.queued.Test(i), m.queue.len())
		}
		if (m.outstanding != nil || m.backoffUntil > b.cycle) && !b.held.Test(i) {
			return fmt.Errorf("master %d: split outstanding %v, backoff until %d at cycle %d, but not held",
				i, m.outstanding != nil, m.backoffUntil, b.cycle)
		}
	}
	// The arbiter's view first: it may be the map cached by this cycle's
	// load, which must still be current.
	want := b.scanRequests()
	if got := b.reqView.Mask(); got != want {
		return fmt.Errorf("arbiter's map %x, scan %x", got, want)
	}
	for i := range b.masters {
		if b.reqView.Pending(i) != want.Test(i) {
			return fmt.Errorf("master %d: Pending %v, scan %v", i, b.reqView.Pending(i), want.Test(i))
		}
		words := 0
		if m := b.masters[i]; want.Test(i) && m.outstanding != nil {
			words = m.outstanding.remaining
		} else if want.Test(i) {
			words = m.queue.front().remaining
		}
		if got := b.reqView.PendingWords(i); got != words {
			return fmt.Errorf("master %d: PendingWords %d, want %d", i, got, words)
		}
	}
	if got := *b.loadRequests(); got != want {
		return fmt.Errorf("kept map %x, scan %x", got, want)
	}
	return nil
}
