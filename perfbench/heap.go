package main

import (
	"runtime/metrics"
	"time"
)

// heapSampleEvery is the heap sampling interval.
const heapSampleEvery = time.Millisecond

// heapSampler samples the Go heap in use (live objects plus garbage not
// yet swept) while a run's ops execute. Its 99th percentile is a steady
// memory figure: it keeps every peak that lasts 1% of the window, and
// unlike the resident-set high-water mark it does not hinge on where one
// garbage collection happened to start.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.mb = append(h.mb, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in megabytes.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.mb
}
