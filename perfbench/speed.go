package main

// The reference machine is a shared host whose speed drifts by tens of
// percent over minutes, for every program on it alike. Each run
// therefore times a fixed piece of standard-library work on its own
// thread all through the run, and the end-to-end timings are scaled to
// the speed at which that work costs refCost: a timing reads what it
// would on a host that fast. Nothing of the program runs in the
// reference work, so a change to the program moves the scaled figures
// as it moves the raw ones.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refCost is the CPU time refWork takes at the reference speed.
	refCost = 200 * time.Microsecond
	// speedEvery is how often the probe runs refWork.
	speedEvery = 50 * time.Millisecond
)

// threadCPU is the calling thread's CPU time.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("thread CPU time: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// refModulus is the secp256k1 field prime, so refWork does the 256-bit
// modular arithmetic the program's signatures are made of.
var refModulus, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)

var refSink byte

// refWork is the fixed reference work: 200 rounds of a 256-bit modular
// multiplication and a SHA-256, all from the standard library.
func refWork() {
	x := big.NewInt(7)
	y := new(big.Int).Sub(refModulus, big.NewInt(3))
	var b [32]byte
	for i := 0; i < 200; i++ {
		x.Mul(x, y)
		x.Mod(x, refModulus)
		b = sha256.Sum256(b[:])
	}
	refSink = b[0] + byte(x.Bits()[0])
}

// speedProbe times refWork in CPU time every speedEvery on a locked
// thread, so that neither descheduling nor the run's own goroutines
// count, only how fast the host executes.
type speedProbe struct {
	s   *sampler
	mu  sync.Mutex
	sp  speed
	err error // the first failed read of the clock
}

// speed is what the probe measured: refWork's cost in ms, at each time.
type speed struct {
	at   []time.Time
	cost samples
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{}
	p.sample()
	p.s = startSampler(speedEvery, p.sample)
	return p
}

func (p *speedProbe) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, err0 := threadCPU()
	refWork()
	c1, err := threadCPU()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err = errors.Join(err0, err); err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.sp.at = append(p.sp.at, time.Now())
	p.sp.cost.add(c1 - c0)
}

// halt stops the probe and returns what it measured.
func (p *speedProbe) halt() (speed, error) {
	p.s.halt()
	return p.sp, p.err
}

const (
	// speedNear is how far around an interval the probe's samples
	// count for it: the host's speed changes within seconds.
	speedNear = time.Second
	// minNear is the fewest samples a local scale rests on; with fewer
	// the whole run's samples are used.
	minNear = 8
)

// scale is refCost over the median cost of refWork: a raw time
// multiplied by it reads as at the reference speed.
func (sp speed) scale() float64 { return ms(refCost) / sp.cost.quantile(0.5) }

// scaleNear is the scale from the samples taken from speedNear before
// a to speedNear after b.
func (sp speed) scaleNear(a, b time.Time) float64 {
	lo := sort.Search(len(sp.at), func(i int) bool { return !sp.at[i].Before(a.Add(-speedNear)) })
	hi := sort.Search(len(sp.at), func(i int) bool { return sp.at[i].After(b.Add(speedNear)) })
	if hi-lo < minNear {
		return sp.scale()
	}
	return ms(refCost) / sp.cost[lo:hi].quantile(0.5)
}

// scaled is how long iv would have taken at the reference speed: each
// second of it is scaled by the host's speed around that second.
func (sp speed) scaled(iv interval) time.Duration {
	var total float64
	for a := iv.start; a.Before(iv.end); {
		b := a.Add(time.Second)
		if b.After(iv.end) {
			b = iv.end
		}
		total += float64(b.Sub(a)) * sp.scaleNear(a, b)
		a = b
	}
	return time.Duration(total)
}

// interval is when something ran.
type interval struct{ start, end time.Time }

func since(start time.Time) interval { return interval{start, time.Now()} }

func (iv interval) d() time.Duration { return iv.end.Sub(iv.start) }

// durations are the intervals' lengths, raw or scaled to the reference
// speed by sp.
func durations(ivs []interval, sp *speed) samples {
	out := make(samples, 0, len(ivs))
	for _, iv := range ivs {
		if sp != nil {
			out.add(sp.scaled(iv))
		} else {
			out.add(iv.d())
		}
	}
	return out
}
