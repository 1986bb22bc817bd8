package des

// Cond is a condition variable for simulated processes: a process waits
// until another process broadcasts, then re-checks its predicate. Because
// only one simulated process runs at a time there is no lock to associate.
type Cond struct {
	waiters []*Proc
}

// WaitArm enqueues p as a waiter and halts it until the next Broadcast.
// The calling Machine must yield (return false) immediately after arming
// and re-check its predicate on re-entry, since Broadcast wakes every
// waiter: if !pred() { c.WaitArm(p); return false }.
func (c *Cond) WaitArm(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.HaltArm()
}

// Broadcast wakes every waiting process at the current virtual time, in
// FIFO order. Processes woken here run after the caller next yields.
func (c *Cond) Broadcast() {
	ws := c.waiters
	// Reuse the backing array: woken processes cannot re-Wait until the
	// caller yields, which is after this loop completes.
	c.waiters = c.waiters[:0]
	for _, p := range ws {
		p.Wake()
	}
}

// Waiting reports the number of processes blocked on the condition.
func (c *Cond) Waiting() int { return len(c.waiters) }
