package des

// Internals exposed to the external des_test package.

const CtxPollInterval = ctxPollInterval

// Reschedule enqueues a fresh wake for p at the current instant,
// superseding any pending one (as a racing double wake would).
func (k *Kernel) Reschedule(p *Proc) { k.schedule(p, k.now) }

// PollArmed reports whether an attached context arms the cancellation
// poll.
func (k *Kernel) PollArmed() bool { return k.ctx != nil }

// QueueCap reports the capacity of the resource's waiter queue.
func (r *Resource) QueueCap() int { return cap(r.queue) }
