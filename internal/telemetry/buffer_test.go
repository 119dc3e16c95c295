package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// intKey keys test partitions; the low bits pick the epoch so eviction
// order is easy to control.
type intKey struct {
	ID    int
	Epoch uint64
}

func newTestBuffer(t *testing.T, cfg BufferConfig[intKey]) *Buffer[intKey, int] {
	t.Helper()
	b, err := NewBuffer[intKey, int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBufferConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  BufferConfig[intKey]
	}{
		{"no ring capacity", BufferConfig[intKey]{MaxPartitions: 1}},
		{"no partition bound", BufferConfig[intKey]{MaxSamplesPerPartition: 1}},
	}
	for _, tc := range cases {
		if _, err := NewBuffer[intKey, int](tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	b := newTestBuffer(t, BufferConfig[intKey]{MaxSamplesPerPartition: 2, MaxPartitions: 12})
	if got := b.MaxSamples(); got != 24 {
		t.Errorf("MaxSamples = %d, want 24", got)
	}
}

func TestBufferRingOverwrite(t *testing.T) {
	b := newTestBuffer(t, BufferConfig[intKey]{MaxSamplesPerPartition: 3, MaxPartitions: 1})
	k := intKey{ID: 1}
	for i := 1; i <= 5; i++ {
		b.Add(k, i)
	}
	if got := b.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := b.Overwrites(); got != 2 {
		t.Errorf("Overwrites = %d, want 2", got)
	}
	var got []int
	b.ForEach(func(_ intKey, ss []int) { got = append(got, ss...) })
	// Oldest first: 1 and 2 were overwritten by 4 and 5.
	want := []int{3, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("samples = %v, want %v", got, want)
	}
}

func TestBufferPartialRingOrder(t *testing.T) {
	b := newTestBuffer(t, BufferConfig[intKey]{MaxSamplesPerPartition: 8, MaxPartitions: 1})
	for i := 1; i <= 3; i++ {
		b.Add(intKey{ID: 1}, i)
	}
	var got []int
	b.ForEach(func(_ intKey, ss []int) { got = append(got, ss...) })
	if fmt.Sprint(got) != fmt.Sprint([]int{1, 2, 3}) {
		t.Errorf("samples = %v, want [1 2 3]", got)
	}
}

func TestBufferOldestEpochEviction(t *testing.T) {
	b := newTestBuffer(t, BufferConfig[intKey]{
		MaxSamplesPerPartition: 4,
		MaxPartitions:          2,
		Epoch:                  func(k intKey) uint64 { return k.Epoch },
	})
	b.Add(intKey{ID: 1, Epoch: 10}, 1)
	b.Add(intKey{ID: 2, Epoch: 20}, 2)
	if got := b.Partitions(); got != 2 {
		t.Fatalf("partitions = %d, want 2", got)
	}
	// A third partition evicts epoch 10, the oldest.
	b.Add(intKey{ID: 3, Epoch: 30}, 3)
	if got := b.Partitions(); got != 2 {
		t.Errorf("partitions = %d, want 2", got)
	}
	if got := b.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	epochs := map[uint64]bool{}
	b.ForEach(func(k intKey, _ []int) { epochs[k.Epoch] = true })
	if epochs[10] || !epochs[20] || !epochs[30] {
		t.Errorf("surviving epochs = %v, want {20, 30}", epochs)
	}
}

// TestBufferEvictionTieBreak pins the deterministic equal-epoch
// eviction order: with Less set, the least key among the lowest-epoch
// partitions is the victim, independent of map iteration order.
func TestBufferEvictionTieBreak(t *testing.T) {
	for run := 0; run < 20; run++ {
		b := newTestBuffer(t, BufferConfig[intKey]{
			MaxSamplesPerPartition: 4,
			MaxPartitions:          4,
			Epoch:                  func(k intKey) uint64 { return k.Epoch },
			Less: func(a, b intKey) bool {
				if a.Epoch != b.Epoch {
					return a.Epoch < b.Epoch
				}
				return a.ID < b.ID
			},
		})
		// Four equal-epoch partitions, inserted in varying order so a
		// map-order tie-break would pick different victims across runs.
		for i, id := range []int{3, 1, 4, 2} {
			b.Add(intKey{ID: (id + run) % 4, Epoch: 5}, i)
		}
		b.Add(intKey{ID: 100, Epoch: 6}, 9)
		if got := b.Evictions(); got != 1 {
			t.Fatalf("run %d: evictions = %d, want 1", run, got)
		}
		ids := map[int]bool{}
		b.ForEach(func(k intKey, _ []int) { ids[k.ID] = true })
		if ids[0] || !ids[1] || !ids[2] || !ids[3] || !ids[100] {
			t.Errorf("run %d: surviving IDs = %v, want {1, 2, 3, 100}", run, ids)
		}
	}
}

// TestBufferEvictionDeterministic pins eviction as a pure function of
// the Add sequence: two buffers fed the same keys past MaxPartitions
// evict the same victims in the same order — with no hash in the path
// there is nothing process-local left to differ — and the partition
// bound is exact at every step.
func TestBufferEvictionDeterministic(t *testing.T) {
	const maxParts = 8
	cfg := BufferConfig[intKey]{
		MaxSamplesPerPartition: 2,
		MaxPartitions:          maxParts,
		Epoch:                  func(k intKey) uint64 { return k.Epoch },
		Less:                   func(a, b intKey) bool { return a.ID < b.ID },
	}
	// live returns the sorted live key set; the victim of a step is the
	// key that left it.
	live := func(b *Buffer[intKey, int]) []intKey {
		var ks []intKey
		b.ForEach(func(k intKey, _ []int) { ks = append(ks, k) })
		sort.Slice(ks, func(i, j int) bool {
			if ks[i].Epoch != ks[j].Epoch {
				return ks[i].Epoch < ks[j].Epoch
			}
			return ks[i].ID < ks[j].ID
		})
		return ks
	}
	a, b := newTestBuffer(t, cfg), newTestBuffer(t, cfg)
	var want []intKey // the reference model's live set, sorted by (Epoch, ID)
	for i := 0; i < 500; i++ {
		// Epochs advance slowly and IDs wrap, so most steps create a
		// partition and most evictions have equal-epoch candidates.
		k := intKey{ID: (i * 7) % 23, Epoch: uint64(i / 40)}
		a.Add(k, i)
		b.Add(k, i)

		at := sort.Search(len(want), func(j int) bool {
			return want[j].Epoch > k.Epoch || (want[j].Epoch == k.Epoch && want[j].ID >= k.ID)
		})
		if at == len(want) || want[at] != k {
			if len(want) == maxParts {
				want = want[1:] // lowest (Epoch, ID) goes
				if at > 0 {
					at--
				}
			}
			want = append(want[:at], append([]intKey{k}, want[at:]...)...)
		}

		la, lb := live(a), live(b)
		if fmt.Sprint(la) != fmt.Sprint(want) || fmt.Sprint(lb) != fmt.Sprint(want) {
			t.Fatalf("step %d: live sets\n a    %v\n b    %v\n want %v", i, la, lb, want)
		}
		if got := a.Partitions(); got > maxParts {
			t.Fatalf("step %d: %d partitions, bound %d", i, got, maxParts)
		}
	}
	if a.Evictions() == 0 || a.Evictions() != b.Evictions() {
		t.Errorf("evictions a=%d b=%d, want equal and non-zero", a.Evictions(), b.Evictions())
	}
}

// TestBufferMemoryBound is the churn test for the hard memory bound:
// a stream of ever-new keys must never push occupancy past MaxSamples.
func TestBufferMemoryBound(t *testing.T) {
	b := newTestBuffer(t, BufferConfig[intKey]{
		MaxSamplesPerPartition: 4,
		MaxPartitions:          16,
		Epoch:                  func(k intKey) uint64 { return k.Epoch },
	})
	bound := b.MaxSamples()
	for i := 0; i < 10_000; i++ {
		b.Add(intKey{ID: i % 257, Epoch: uint64(i / 100)}, i)
		if got := b.Len(); got > bound {
			t.Fatalf("after %d adds: Len = %d exceeds bound %d", i+1, got, bound)
		}
		if got := b.Partitions(); got > 16 {
			t.Fatalf("after %d adds: %d partitions, bound 16", i+1, got)
		}
	}
	if b.Evictions() == 0 {
		t.Error("churn caused no evictions")
	}
}

// TestBufferConcurrent exercises writes racing ForEach and the
// occupancy accessors; run under -race this is the buffer's
// thread-safety proof.
func TestBufferConcurrent(t *testing.T) {
	b := newTestBuffer(t, BufferConfig[intKey]{
		MaxSamplesPerPartition: 8,
		MaxPartitions:          64,
		Epoch:                  func(k intKey) uint64 { return k.Epoch },
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b.Add(intKey{ID: (w*31 + i) % 97, Epoch: uint64(i / 50)}, i)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			n := 0
			b.ForEach(func(_ intKey, ss []int) { n += len(ss) })
			if n > b.MaxSamples() {
				t.Errorf("snapshot saw %d samples, bound %d", n, b.MaxSamples())
				return
			}
			_ = b.Len()
			_ = b.Partitions()
		}
	}()
	wg.Wait()
}

// BenchmarkBufferAdd pins the steady-state write path: once a
// partition's ring exists, Add must not allocate.
func BenchmarkBufferAdd(b *testing.B) {
	buf, err := NewBuffer[intKey, int](BufferConfig[intKey]{
		MaxSamplesPerPartition: 128,
		MaxPartitions:          64,
	})
	if err != nil {
		b.Fatal(err)
	}
	k := intKey{ID: 7}
	buf.Add(k, 0) // create the partition outside the measured loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Add(k, i)
	}
	if testing.AllocsPerRun(100, func() { buf.Add(k, 1) }) != 0 {
		b.Error("steady-state Add allocates")
	}
}
