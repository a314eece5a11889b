package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// rssEvery is how often the window samples the resident set size.
const rssEvery = 20 * time.Millisecond

// window is one measurement window. In a traced run tracing switches on
// halfway: the first half measures the untraced rate the traced half is
// compared with, and only the traced half records spans. The window
// also samples the process's resident set size.
type window struct {
	start, mid, end time.Time
	timer           *time.Timer
	rss             *sampler
	mu              sync.Mutex
	rssMB           samples
	rssErr          error // the first failed read of the resident set size
}

// openWindow starts a window of length d, after collecting the garbage
// set-up left behind and returning it to the system, so the memory
// samples are the run's own.
func openWindow(d time.Duration, t *tracer) *window {
	debug.FreeOSMemory()
	now := time.Now()
	w := &window{start: now, mid: now.Add(d), end: now.Add(d)}
	if t != nil {
		w.mid = now.Add(d / 2)
		w.timer = time.AfterFunc(d/2, func() { t.enabled.Store(true) })
	}
	w.sampleRSS()
	w.rss = startSampler(rssEvery, w.sampleRSS)
	return w
}

func (w *window) sampleRSS() {
	mb, err := rssMB()
	w.mu.Lock()
	if err != nil && w.rssErr == nil {
		w.rssErr = fmt.Errorf("resident set size: %w", err)
	} else if err == nil {
		w.rssMB = append(w.rssMB, mb)
	}
	w.mu.Unlock()
}

func (w *window) open() bool { return time.Now().Before(w.end) }

// manual stops the window switching tracing on by itself, mid-way
// through whatever runs at the half-way mark: the caller calls step
// between operations instead.
func (w *window) manual() {
	if w.timer != nil {
		w.timer.Stop()
	}
}

// pause moves the rest of the window d later, so that d spent in half
// h is not measured.
func (w *window) pause(d time.Duration, h int) {
	if h == 0 {
		w.mid = w.mid.Add(d)
	}
	w.end = w.end.Add(d)
}

// step switches tracing on or off by which half of the window it is,
// and returns the half.
func (w *window) step(t *tracer) int {
	h := w.half(time.Now())
	if t != nil {
		t.enabled.Store(h == 1)
	}
	return h
}

// half is 0 for an instant in the untraced half, 1 in the traced half.
func (w *window) half(at time.Time) int {
	if at.Before(w.mid) {
		return 0
	}
	return 1
}

// rates converts per-half completion counts into per-second rates.
func (w *window) rates(done [2]int) (untraced, traced float64) {
	untraced = float64(done[0]) / w.mid.Sub(w.start).Seconds()
	if tr := w.end.Sub(w.mid).Seconds(); tr > 0 {
		traced = float64(done[1]) / tr
	}
	return untraced, traced
}

// finish stops the samplers and tracing, hands the memory samples to o
// and returns the traced half's spans.
func (w *window) finish(t *tracer, o *outcome) ([]span, error) {
	w.rss.halt()
	w.sampleRSS()
	o.rss = w.rssMB
	if t != nil {
		w.timer.Stop()
		t.enabled.Store(false)
	}
	if w.rssErr != nil {
		return nil, w.rssErr
	}
	if t == nil {
		return nil, nil
	}
	return t.take(), nil
}

// sampler calls fn every period until halted.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it.
func (s *sampler) halt() {
	close(s.stop)
	s.wg.Wait()
}
