// Package cgfix exercises the call-graph builder: static calls, method
// values, interface dispatch, and function-valued struct fields.
package cgfix

type Rule interface {
	Apply(x int) int
}

type Doubler struct{}

func (Doubler) Apply(x int) int { return x * 2 }

type Negator struct{ bias int }

func (n *Negator) Apply(x int) int { return -x + n.bias }

// Dispatch calls through the interface: both implementations are
// dynamic candidates.
func Dispatch(r Rule, x int) int {
	return r.Apply(x)
}

func leaf(x int) int { return x + 1 }

// Runner stores a function value in a struct field.
type Runner struct {
	fn func(int) int
}

// CallField invokes the function-valued field: resolves to whatever
// flowed into it.
func (r *Runner) CallField(x int) int {
	return r.fn(x)
}

// Wire stores leaf into the field via a keyed composite literal.
func Wire() *Runner {
	return &Runner{fn: leaf}
}

// WireAssign stores a literal into the field via assignment.
func WireAssign(r *Runner) {
	r.fn = func(x int) int { return x - 1 }
}

// ApplyTwice binds the callback parameter and calls it.
func ApplyTwice(f func(int) int, x int) int {
	return f(f(x))
}

// UseApply passes a method value and a named function as callbacks.
func UseApply(x int) int {
	d := Doubler{}
	a := ApplyTwice(d.Apply, x)
	b := ApplyTwice(leaf, x)
	return a + b
}

// Spawn launches a worker literal.
func Spawn(done chan struct{}) {
	go func() {
		leaf(1)
		close(done)
	}()
	<-done
}

// The functions below exercise the per-function summaries.

// mutateElem writes through its parameter: caller-visible.
func mutateElem(s []int) { s[0] = 1 }

// forwardMutate hands its parameter to a mutator: the mutation fact
// propagates through the call.
func forwardMutate(s []int) { mutateElem(s) }

// rebindOnly rebinds its local copy of the parameter: invisible to the
// caller.
func rebindOnly(s []int) { s = nil; _ = s }

// mutateAlias mutates through a local alias of the parameter.
func mutateAlias(s []int) {
	t := s[1:]
	t[0] = 2
}

// runCallback invokes its callback on a goroutine it spawns.
func runCallback(f func()) {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	<-done
}

// forwardCallback forwards its callback to the runner: the
// runs-in-goroutine fact propagates.
func forwardCallback(f func()) { runCallback(f) }

// callNow calls its callback on the caller's goroutine.
func callNow(f func()) { f() }

// callThenClose calls its callback, then signals done.
func callThenClose(f func(), done chan struct{}) {
	f()
	close(done)
}

// spawnNamed runs its callback on a goroutine without a literal: the
// callback is an argument of `go callThenClose(…)`, which calls it.
func spawnNamed(f func()) {
	done := make(chan struct{})
	go callThenClose(f, done)
	<-done
}

// allocKinds holds one allocation site of each classified kind.
func allocKinds(n int) int {
	m := make(map[int]int)
	s := make([]int, n)
	p := new(int)
	c := &Negator{bias: 1}
	lit := []int{1, 2}
	var grown []int
	grown = append(grown, lit...)
	fn := func() int { return *p + c.bias }
	return len(m) + len(s) + fn() + len(grown)
}

// preallocAppend reuses a capacity-made buffer: the appends carry
// prealloc evidence and are not allocation sites.
func preallocAppend(n int) []int {
	buf := make([]int, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}
