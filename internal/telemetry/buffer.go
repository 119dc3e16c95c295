// Package telemetry is the live observability subsystem: a generic,
// partitioned, epoch-keyed sample buffer with a hard memory bound,
// fixed-bucket histograms, and the recorder that feeds them from the
// protocol core (direct-ack RTTs, probe outcomes, LHM score changes,
// suspicion lifecycle durations).
//
// The protocol core consumes it through the Recorder interface behind
// core's Config.Telemetry, which is nil by default: with no recorder
// installed the hooks are single nil checks, the probe hot path stays
// allocation-free, and — because recording never draws from a node's
// RNG or schedules clock events — enabling a recorder cannot perturb a
// simulation's event ordering or its same-seed byte-identical records.
//
// NodeRecorder is the recorder for a live agent: per-peer RTT/loss
// partitions plus process-wide histograms, exported over
// cmd/lifeguard-agent's HTTP ops surface.
package telemetry

import (
	"errors"
	"sync"
)

// BufferConfig parameterizes a Buffer. The zero value is not usable:
// both bounds are required.
type BufferConfig[K comparable] struct {
	// MaxSamplesPerPartition is the ring capacity of one partition:
	// once full, new samples overwrite the oldest in place.
	MaxSamplesPerPartition int

	// MaxPartitions bounds the number of live partitions, exactly;
	// together with the ring capacity this is the buffer's hard memory
	// bound. When the buffer is full, the partition with the lowest
	// (Epoch, Less) key is evicted to make room.
	MaxPartitions int

	// Epoch orders partitions for eviction: the partition whose key has
	// the lowest Epoch is dropped first. Nil treats every partition as
	// epoch zero.
	Epoch func(K) uint64

	// Less breaks eviction ties between equal-epoch partitions: among
	// the lowest-epoch keys the least key by Less is evicted. With a
	// total order here eviction is a pure function of the Add sequence,
	// the same in every process; nil leaves ties to map iteration order.
	Less func(a, b K) bool
}

// Buffer is a partitioned, epoch-keyed sample store with a hard memory
// bound: per-partition ring storage (MaxSamplesPerPartition) and an
// exact partition count bound with oldest-epoch eviction, under one
// lock. Every Recorder hook runs under its node's protocol lock, so a
// buffer has one writer and the occasional scraping reader.
//
// Buffer is safe for concurrent use.
type Buffer[K comparable, S any] struct {
	cfg BufferConfig[K]

	mu         sync.Mutex
	parts      map[K]*partition[S]
	evictions  uint64
	overwrites uint64
}

// partition is one key's ring of samples, preallocated at creation so
// steady-state appends never allocate.
type partition[S any] struct {
	samples []S
	next    int
	count   int
}

// NewBuffer validates cfg and returns an empty buffer.
func NewBuffer[K comparable, S any](cfg BufferConfig[K]) (*Buffer[K, S], error) {
	if cfg.MaxSamplesPerPartition < 1 {
		return nil, errors.New("telemetry: MaxSamplesPerPartition must be at least 1")
	}
	if cfg.MaxPartitions < 1 {
		return nil, errors.New("telemetry: MaxPartitions must be at least 1")
	}
	return &Buffer[K, S]{cfg: cfg, parts: make(map[K]*partition[S])}, nil
}

// Add appends one sample to k's partition, creating it (and evicting
// the oldest-epoch partition if the buffer is full) as needed. A full
// ring overwrites its oldest sample in place, so steady-state adds are
// allocation-free.
func (b *Buffer[K, S]) Add(k K, s S) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.parts[k]
	if p == nil {
		if len(b.parts) >= b.cfg.MaxPartitions {
			b.evictOldestLocked()
		}
		p = &partition[S]{samples: make([]S, b.cfg.MaxSamplesPerPartition)}
		b.parts[k] = p
	}
	if p.count == len(p.samples) {
		b.overwrites++
	} else {
		p.count++
	}
	p.samples[p.next] = s
	p.next++
	if p.next == len(p.samples) {
		p.next = 0
	}
}

// evictOldestLocked drops the partition with the lowest epoch, breaking
// equal-epoch ties with cfg.Less when set. Called with b.mu held and at
// least one live partition.
func (b *Buffer[K, S]) evictOldestLocked() {
	var victim K
	var victimEpoch uint64
	first := true
	for k := range b.parts {
		e := uint64(0)
		if b.cfg.Epoch != nil {
			e = b.cfg.Epoch(k)
		}
		switch {
		case first || e < victimEpoch:
			victim, victimEpoch, first = k, e, false
		case e == victimEpoch && b.cfg.Less != nil && b.cfg.Less(k, victim):
			victim = k
		}
	}
	delete(b.parts, victim)
	b.evictions++
}

// Len returns the total number of samples currently held.
func (b *Buffer[K, S]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, p := range b.parts {
		total += p.count
	}
	return total
}

// Partitions returns the number of live partitions.
func (b *Buffer[K, S]) Partitions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.parts)
}

// Evictions returns how many partitions have been evicted to enforce
// the partition bound.
func (b *Buffer[K, S]) Evictions() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evictions
}

// Overwrites returns how many samples have been overwritten in full
// rings.
func (b *Buffer[K, S]) Overwrites() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.overwrites
}

// MaxSamples returns the hard sample-count bound implied by the
// configuration: partition bound × ring capacity.
func (b *Buffer[K, S]) MaxSamples() int {
	return b.cfg.MaxPartitions * b.cfg.MaxSamplesPerPartition
}

// ForEach calls fn once per live partition with the key and a copy of
// its samples in insertion order (oldest first). The copy is taken
// under the lock and fn runs outside it; the iteration order is
// unspecified.
func (b *Buffer[K, S]) ForEach(fn func(k K, samples []S)) {
	type entry struct {
		k  K
		ss []S
	}
	b.mu.Lock()
	entries := make([]entry, 0, len(b.parts))
	for k, p := range b.parts {
		ss := make([]S, 0, p.count)
		if p.count == len(p.samples) {
			ss = append(ss, p.samples[p.next:]...)
			ss = append(ss, p.samples[:p.next]...)
		} else {
			ss = append(ss, p.samples[:p.count]...)
		}
		entries = append(entries, entry{k: k, ss: ss})
	}
	b.mu.Unlock()
	for _, e := range entries {
		fn(e.k, e.ss)
	}
}
