package des

// Resource models a single-server FCFS queueing station (a memory
// controller, a network switch port, a NIC). A process queues for the
// server with AcquireArm, completes the acquire with AcquireDone, holds
// the server for its service time and releases it with ServeDone (or
// Release). The
// resource keeps the aggregate statistics queueing theory predicts (waiting
// time, utilisation) so simulations can be checked against closed forms.
type Resource struct {
	k     *Kernel
	name  string
	busy  bool
	queue []*Proc // FCFS waiters are queue[head:]
	head  int     // index of the next waiter to be granted

	// Statistics.
	served       int64
	totalWait    float64
	totalService float64
	busySince    float64
	busyTime     float64
	lastReset    float64
}

// NewResource creates an idle single-server FCFS resource.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// Name returns the resource label.
func (r *Resource) Name() string { return r.name }

// AcquireArm begins an acquire: it either grants the idle server
// immediately (true) or enqueues p and halts it (false) — the calling
// Machine must then yield; Release wakes it holding the server. Either way
// the caller completes the acquire with AcquireDone once it runs holding
// the server, and must eventually release it.
func (r *Resource) AcquireArm(p *Proc) bool {
	if r.busy {
		// Popping advances head rather than reslicing, so the backing
		// array is reused: Release rewinds it when the queue drains, and a
		// full array with popped slots is compacted here instead of
		// grown, bounding its capacity by twice the peak number of waiters.
		if r.head > 0 && len(r.queue) == cap(r.queue) {
			n := copy(r.queue, r.queue[r.head:])
			clear(r.queue[n:])
			r.queue, r.head = r.queue[:n], 0
		}
		r.queue = append(r.queue, p)
		p.HaltArm()
		return false
	}
	r.busy = true
	r.busySince = r.k.now
	return true
}

// AcquireDone records the queueing statistics of an acquire begun at
// virtual time enq and returns the queueing delay.
func (r *Resource) AcquireDone(enq float64) (wait float64) {
	wait = r.k.now - enq
	r.served++
	r.totalWait += wait
	return wait
}

// ServeDone accounts the service time of a completed hold and releases the
// server.
func (r *Resource) ServeDone(service float64) {
	r.totalService += service
	r.Release()
}

// Release frees the server and grants it to the next waiter, if any.
func (r *Resource) Release() {
	if r.head < len(r.queue) {
		next := r.queue[r.head]
		r.queue[r.head] = nil
		r.head++
		if r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		// Server stays busy: hand-off is immediate.
		next.Wake()
		return
	}
	r.busy = false
	r.busyTime += r.k.now - r.busySince
}

// QueueLen reports the number of processes waiting (not counting the one
// in service).
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// Busy reports whether the server is occupied.
func (r *Resource) Busy() bool { return r.busy }

// Stats is a snapshot of a resource's aggregate behaviour.
type ResourceStats struct {
	Served       int64   // completed service requests
	MeanWait     float64 // mean queueing delay per request [s]
	MeanService  float64 // mean service time per request [s]
	Utilization  float64 // fraction of elapsed time the server was busy
	TotalWait    float64 // summed queueing delay [s]
	TotalService float64 // summed service time [s]
}

// Stats returns the resource statistics accumulated since the last Reset
// (or creation), using the current kernel time as the observation horizon.
func (r *Resource) Stats() ResourceStats {
	elapsed := r.k.now - r.lastReset
	busy := r.busyTime
	if r.busy {
		busy += r.k.now - r.busySince
	}
	s := ResourceStats{
		Served:       r.served,
		TotalWait:    r.totalWait,
		TotalService: r.totalService,
	}
	if r.served > 0 {
		s.MeanWait = r.totalWait / float64(r.served)
		s.MeanService = r.totalService / float64(r.served)
	}
	if elapsed > 0 {
		s.Utilization = busy / elapsed
	}
	return s
}

// Reset zeroes the statistics; queue state is untouched.
func (r *Resource) Reset() {
	r.served = 0
	r.totalWait = 0
	r.totalService = 0
	r.busyTime = 0
	r.lastReset = r.k.now
	if r.busy {
		r.busySince = r.k.now
	}
}
