package main

import (
	"sync"
	"time"
)

// speedometer measures how fast the machine is right now, so that a
// timing taken beside it can be stated for a machine of nominal speed.
// The sandbox's two cores slow down by up to half for minutes at a time
// when their host is busy; without this, two runs of the same code
// differ by more than any bound worth setting.
//
// One reading is a fixed piece of work — hashing, dependent loads
// through a 16 MB table, map lookups — run on several cores at once, as
// many as the workload's clients keep busy, and timed, repeated, median
// taken. (The two vCPUs here share between one and two cores' worth of
// work, so one busy thread and two see different machines.) It shares
// no code with the program, so no change to the program can move it.
type speedometer struct {
	workers []*speedWork
}

type speedWork struct {
	table []uint32
	m     map[uint64]uint64
	buf   []byte
	sink  uint64
}

const (
	// nominalReadingUS is the reading of this sandbox in its usual
	// state. It only fixes the scale of the normalised metrics.
	nominalReadingUS = 1350
	speedReps        = 60
)

func newSpeedWork() *speedWork {
	w := &speedWork{table: make([]uint32, 1<<22), m: map[uint64]uint64{}, buf: make([]byte, 64<<10)}
	// One cycle through the whole table, in a fixed pseudo-random order.
	idx := make([]uint32, len(w.table))
	for i := range idx {
		idx[i] = uint32(i)
	}
	x := uint32(1)
	for i := len(idx) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x % uint32(i+1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	for i := range idx {
		w.table[idx[i]] = idx[(i+1)%len(idx)]
	}
	for i := uint64(0); i < 1<<12; i++ {
		w.m[i*2654435761] = i
	}
	return w
}

func (w *speedWork) run() {
	h := uint64(fnvOffset)
	for r := 0; r < 8; r++ {
		for _, c := range w.buf {
			h = (h ^ uint64(c)) * fnvPrime
		}
	}
	p := uint32(h) % uint32(len(w.table))
	for i := 0; i < 20000; i++ {
		p = w.table[p]
	}
	for i := uint64(0); i < 20000; i++ {
		h += w.m[(i&(1<<12-1))*2654435761]
	}
	w.sink += h + uint64(p)
}

func newSpeedometer(cores int) *speedometer {
	s := &speedometer{}
	for i := 0; i < cores; i++ {
		s.workers = append(s.workers, newSpeedWork())
	}
	return s
}

// factor takes one reading and returns it as a share of nominal: above
// 1 the machine is slower than nominal, and a duration measured now
// divided by the factor is what it would have been at nominal speed.
func (s *speedometer) factor() float64 {
	// Every worker runs its own series of rounds at once; the rounds are
	// timed one by one and not in step, so a core that is taken away
	// for a moment lengthens a few rounds, not all of them.
	all := make([][]float64, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		wg.Add(1)
		go func(i int, w *speedWork) {
			defer wg.Done()
			for r := 0; r < speedReps; r++ {
				start := time.Now()
				w.run()
				all[i] = append(all[i], float64(time.Since(start))/float64(time.Microsecond))
			}
		}(i, w)
	}
	wg.Wait()
	var readings []float64
	for _, rs := range all {
		readings = append(readings, rs...)
	}
	return median(readings) / nominalReadingUS
}
