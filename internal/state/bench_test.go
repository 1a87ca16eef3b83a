package state

import "testing"

// BenchmarkStatePutGet measures the keyed-reduce hot path against the state
// backend: one read-modify-write per op over a working set large enough to
// defeat tiny-cache effects, exactly the access pattern KeyedReduceLogic
// performs per record (the float64 fast lane; the boxed Put/Get compat path
// is off the record path and is not gated).
func BenchmarkStatePutGet(b *testing.B) {
	const keys = 4096
	s := NewStore(128)
	for kg := 0; kg < 128; kg++ {
		s.OwnGroup(kg)
	}
	for k := uint64(1); k <= keys; k++ {
		s.PutF64(k, float64(k), 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%keys) + 1
		acc, _ := s.GetF64(k)
		s.PutF64(k, acc+1, 64)
	}
}

// BenchmarkStateMigrateGroup measures the migration unit operations every
// scaling mechanism is built from: extract a populated key group from one
// store, install it into another, then move it back.
func BenchmarkStateMigrateGroup(b *testing.B) {
	const keys = 8192
	src := NewStore(8)
	dst := NewStore(8)
	for kg := 0; kg < 8; kg++ {
		src.OwnGroup(kg)
		dst.OwnGroup(kg)
	}
	for k := uint64(1); k <= keys; k++ {
		src.PutF64(k, float64(k), 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kg := i % 8
		dst.InstallGroup(kg, src.ExtractGroup(kg))
		src.InstallGroup(kg, dst.ExtractGroup(kg))
	}
}

// benchLookup measures the per-record keyed-state path of ApplyRecord and
// KeyedReduceLogic (HasGroup on the record's key group, then a fast-lane
// read-modify-write) on the store of instance idx of parallelism p over maxKG
// key groups, holding its Flink range.
func benchLookup(b *testing.B, maxKG, p, idx int) {
	s := NewStore(maxKG)
	lo, hi := KeyGroupRange(maxKG, p, idx)
	for kg := lo; kg < hi; kg++ {
		s.OwnGroup(kg)
	}
	var keys []uint64
	for k := uint64(1); len(keys) < 1024; k++ {
		if s.HasGroup(KeyGroupOf(k, maxKG)) {
			keys = append(keys, k)
			s.PutF64(k, 0, 64)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if !s.HasGroup(KeyGroupOf(k, maxKG)) {
			b.Fatalf("key %d lost its group", k)
		}
		acc, _ := s.GetF64(k)
		s.PutF64(k, acc+1, 64)
	}
}

// BenchmarkStoreLookupNarrow: 128 key groups over 4 instances (32 local).
func BenchmarkStoreLookupNarrow(b *testing.B) { benchLookup(b, 128, 4, 1) }

// BenchmarkStoreLookupWideSparse: 1024 key groups over 320 instances (3 or 4
// local), the shape of the bigcluster-128 rescale.
func BenchmarkStoreLookupWideSparse(b *testing.B) { benchLookup(b, 1024, 320, 200) }
