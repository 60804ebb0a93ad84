package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a timing's tail is reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten samples beyond it among n samples, or 0 when even the median
// does not (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank q-th percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(samples []float64) float64 { return percentile(sortedCopy(samples), 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sampler polls the live heap every millisecond on its own goroutine and
// keeps the highest reading since it was last taken. runtime/metrics is
// read instead of runtime.ReadMemStats because it does not stop the world,
// so the sampling itself barely perturbs what it measures.
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	s.peak.Store(liveHeap())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				storeMax(&s.peak, liveHeap())
			}
		}
	}()
	return s
}

// take returns the highest heap reading since the sampler started or was
// last taken, and starts over from the heap as it is now.
func (s *sampler) take() uint64 {
	storeMax(&s.peak, liveHeap())
	return s.peak.Swap(liveHeap())
}

// stop ends sampling.
func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// storeMax raises a to v if v is higher.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// allocated returns the cumulative bytes allocated by the process.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// calibrate times a fixed stdlib kernel — SHA-256 over 16 MiB — five
// times and returns the fastest, in milliseconds. Run before and after
// the timed passes, it tells host slowdowns apart from code changes.
func calibrate() float64 {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sum := sha256.Sum256(buf)
		best = min(best, ms(time.Since(t0)))
		buf[int(sum[0])]++
	}
	return best
}

// hostCPU is a snapshot of the host's CPU time counters (/proc/stat) and
// this process's CPU time (rusage).
type hostCPU struct {
	ok           bool
	steal, total uint64
	wall         time.Time
	proc         time.Duration
}

func readHostCPU() hostCPU {
	h := hostCPU{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return h
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return h
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// hostNoise reports the host-noise probes between two snapshots: the
// share of host CPU time stolen by the hypervisor, and the CPU time this
// process used per wall-clock second (in cores).
func hostNoise(a, b hostCPU) (stealPct, cpuUtil float64) {
	if a.ok && b.ok && b.total > a.total {
		stealPct = 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	if wall := b.wall.Sub(a.wall); wall > 0 {
		cpuUtil = float64(b.proc-a.proc) / float64(wall)
	}
	return stealPct, cpuUtil
}

// warnDrift prints a warning when the calibration kernel drifted by more
// than 10% across the run: the host, not the code, changed speed.
func warnDrift(before, after float64) {
	if before > 0 && math.Abs(after-before)/before > 0.10 {
		fmt.Fprintf(os.Stderr, "wearperf: warning: host.calib_ms drifted %.1f%% (%.2f -> %.2f ms); the host was noisy\n",
			100*(after-before)/before, before, after)
	}
}
