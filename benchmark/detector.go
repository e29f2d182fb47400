package main

import "rejuv"

// timedDetector times every Observe call of the wrapped detector as a
// core.observe span on the track of the goroutine that observes.
type timedDetector struct {
	inner rejuv.Detector
	trk   *track
}

// Observe implements rejuv.Detector.
func (d *timedDetector) Observe(x float64) rejuv.Decision {
	d.trk.begin(layerCoreObserve, 0)
	dec := d.inner.Observe(x)
	d.trk.end()
	return dec
}

// Reset implements rejuv.Detector.
func (d *timedDetector) Reset() { d.inner.Reset() }

// The wrapper must implement exactly the optional interfaces the
// wrapped detector implements: Monitor, the simulation model and the
// journal type-assert Instrumented and Rebaseliner, and a wrapper that
// hid one (or faked one) would change what they record.
type (
	timedInstrumented struct {
		*timedDetector
		rejuv.Instrumented
	}
	timedRebaseliner struct {
		*timedDetector
		rejuv.Rebaseliner
	}
	timedBoth struct {
		*timedDetector
		rejuv.Instrumented
		rejuv.Rebaseliner
	}
)

// timeDetector wraps d so its Observe calls are traced on trk,
// forwarding Instrumented and Rebaseliner when d implements them. With
// a nil track it returns d itself.
func timeDetector(d rejuv.Detector, trk *track) rejuv.Detector {
	if trk == nil || d == nil {
		return d
	}
	base := &timedDetector{inner: d, trk: trk}
	in, isIn := d.(rejuv.Instrumented)
	rb, isRb := d.(rejuv.Rebaseliner)
	switch {
	case isIn && isRb:
		return timedBoth{base, in, rb}
	case isIn:
		return timedInstrumented{base, in}
	case isRb:
		return timedRebaseliner{base, rb}
	}
	return base
}
