package sim

// Thunks is a free list of payload-carrying callbacks for the per-event
// paths. A model that must hand the engine (or the host kernel) a
// func() which remembers a payload — the request a device is serving,
// the epoch a continuation checks — would otherwise build a fresh
// closure per event. Bind instead takes a recycled node, stores the
// payload and the callee in it, and returns the node's run method,
// bound once when the node was first made; running it puts the node
// back on the list before calling fn(arg). In steady state Bind and the
// run allocate nothing.
//
// fn must itself cost nothing to obtain: a top-level function taking
// the payload, or a method value bound once per owner — never a closure
// built per event, which would defeat the list.
//
// Each func() Bind returns must run at most once; the event engine and
// the host kernel's work items guarantee that. A bound callback that
// never runs (its event was cancelled, its thread killed) is simply
// dropped for the garbage collector. The zero Thunks is ready to use.
type Thunks[T any] struct {
	free []*thunk[T]
}

type thunk[T any] struct {
	list *Thunks[T]
	fn   func(T)
	arg  T
	run  func()
}

// Bind returns a callback that runs fn(arg) once.
func (l *Thunks[T]) Bind(fn func(T), arg T) func() {
	var k *thunk[T]
	if n := len(l.free); n > 0 {
		k = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		k = &thunk[T]{list: l}
		k.run = k.fire
	}
	k.fn, k.arg = fn, arg
	return k.run
}

func (k *thunk[T]) fire() {
	fn, arg := k.fn, k.arg
	var zero T
	k.fn, k.arg = nil, zero
	k.list.free = append(k.list.free, k)
	fn(arg)
}
