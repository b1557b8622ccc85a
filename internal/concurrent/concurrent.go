// Package concurrent makes any linear sketch safe for multi-goroutine
// ingestion by sharding: P writers each own a private replica built
// with the same configuration and seeds, so updates are contention
// free; linearity (the same property that powers the distributed model
// of §1) means the replicas simply sum, and readers consume merged
// snapshots.
//
// This is the idiomatic way to parallelize sketch ingestion — a single
// mutex serializes the hot path, while striped locks break the
// sketch's cross-bucket invariants (the bias-aware sketches update a
// bucket row *and* an estimator per call, which must stay atomic
// relative to each other for mid-stream queries).
//
// The read side is epoch-counted: every shard carries an atomic epoch
// bumped on each write, and the merged replica readers see is an
// immutable Snapshot swapped in atomically by Refresh. Reading a
// published snapshot takes zero shard locks and never blocks writers;
// a refresh locks — briefly, one at a time — only the shards whose
// epoch advanced since their state was last frozen, re-freezes those,
// and re-sums the frozen replicas lock-free. The price is a lazily
// made frozen replica per written shard plus the published merge
// (memory up to 2P+1 single sketches once snapshots are in use); the
// return is a serving path where query bursts from many goroutines
// proceed with no coordination at all.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mergeable is the replica surface sharding needs: sketch.Sketch's
// method set (see there for the batch contracts), restated structurally
// so this package keeps zero sketch dependencies. Merging is supplied
// separately as New's merge function.
type Mergeable interface {
	Update(i int, delta float64)
	Query(i int) float64
	UpdateBatch(idx []int, deltas []float64)
	QueryBatch(idx []int, out []float64)
	Dim() int
	Words() int
}

// Sharded is a set of P replicas of one sketch plus a merge rule.
type Sharded[S Mergeable] struct {
	shards []shard[S]
	mk     func() S
	merge  func(dst, src S) error

	// view is the published read replica; readers atomic-load it and
	// never touch shard locks. refreshMu serializes refreshes and
	// guards frozen/frozenOK/frozenEpo.
	view      atomic.Pointer[Snapshot[S]]
	refreshMu sync.Mutex
	frozen    []S      // per-shard copy as of frozenEpo[i], lazily made
	frozenEpo []uint64 // shard epoch when frozen[i] was captured; 0 = never frozen
}

type shard[S Mergeable] struct {
	mu    sync.Mutex
	sk    S
	epoch atomic.Uint64 // bumped under mu after every applied write
	_     [32]byte      // pad to 64 bytes: one shard's mutex+epoch per cache line
}

// New creates a sharded sketch with p shards. mk must build replicas
// with identical configuration and seeds (so they merge); merge adds
// src into dst.
func New[S Mergeable](p int, mk func() S, merge func(dst, src S) error) *Sharded[S] {
	if p <= 0 {
		panic(fmt.Sprintf("concurrent: shard count %d must be positive", p))
	}
	s := &Sharded[S]{
		shards:    make([]shard[S], p),
		mk:        mk,
		merge:     merge,
		frozen:    make([]S, p),
		frozenEpo: make([]uint64, p),
	}
	for i := range s.shards {
		s.shards[i].sk = mk()
	}
	// Frozen replicas are made lazily, on the first refresh that finds
	// the shard written: a never-written shard is empty, exactly what an
	// absent frozen copy contributes to the merged snapshot, and
	// write-only users (or Merged-only users) never pay the extra P
	// replicas at all.
	return s
}

// Update applies x[i] += delta on the shard owning the caller's slot.
// slot is any caller-chosen integer (e.g. a worker id); updates with
// the same slot serialize, different slots proceed in parallel.
//
// The shard lock is released by defer: sk.Update panics on programmer
// errors (an out-of-range index), and a panicking writer must not
// leave the shard locked forever for every later writer. The epoch
// bumps by defer too, even when the write panics: the sketches in this
// module validate before mutating, but a foreign replica might panic
// half-applied, and a spurious epoch bump merely costs one refresh
// while a missed one would hide the partial write from every snapshot.
//
//sketch:hotpath
func (s *Sharded[S]) Update(slot, i int, delta float64) {
	sh := &s.shards[uint(slot)%uint(len(s.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.epoch.Add(1)
	sh.sk.Update(i, delta)
}

// readPreparer matches sketches that precompute lazily built query
// caches, so the first reads of a published snapshot don't pay the
// cache construction.
type readPreparer interface {
	PrepareRead()
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j on the slot's
// shard under a single lock acquisition — one acquire/release per
// batch instead of per element, the high-throughput ingestion path —
// and hands the whole batch to the replica's UpdateBatch. The shard
// epoch advances once per batch, by defer: the sketches in this module
// validate a batch before applying it, but a foreign replica that
// panics half-applied still has its partial write reach the next
// refresh.
//
//sketch:hotpath
func (s *Sharded[S]) UpdateBatch(slot int, idx []int, deltas []float64) {
	if len(idx) != len(deltas) {
		panic(fmt.Sprintf("concurrent: batch index count %d != delta count %d", len(idx), len(deltas)))
	}
	if len(idx) == 0 {
		return // nothing to apply; don't mark snapshots stale for a no-op
	}
	sh := &s.shards[uint(slot)%uint(len(s.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.epoch.Add(1)
	sh.sk.UpdateBatch(idx, deltas)
}

// Snapshot is an immutable merged view of a Sharded sketch: the sum of
// every shard's state as of the Refresh that published it. Readers
// share it — neither they nor the Sharded ever mutate a published
// snapshot — so any number of goroutines may query it concurrently
// with zero locks while writers keep ingesting.
type Snapshot[S Mergeable] struct {
	owner  *Sharded[S]
	sk     S
	epochs []uint64 // per-shard epoch folded into sk
}

// Sketch returns the merged replica. It is shared and immutable:
// callers must not update or merge into it (clone it via the owner's
// Merged for a mutable copy).
func (sn *Snapshot[S]) Sketch() S { return sn.sk }

// pointBufs is the pooled one-element batch a shared-replica point
// query routes through: pooling keeps the buffers off the heap per call
// even though they escape into the replica's QueryBatch via an
// interface.
type pointBufs struct {
	idx [1]int
	out [1]float64
}

var pointPool = sync.Pool{New: func() any { return new(pointBufs) }}

// QueryPoint answers a point query against a shared, quiescent replica
// (a published Snapshot or sliding-window View) as a batch of one: the
// single-element Query methods of most sketches reuse per-sketch
// scratch, which concurrent readers of a shared replica must not
// touch, while the batched paths borrow their scratch per call.
//
//sketch:hotpath
func QueryPoint[S Mergeable](sk S, i int) float64 {
	pb := pointPool.Get().(*pointBufs)
	// Returned by defer: a panicking replica QueryBatch (an
	// out-of-range index, a poisoned foreign replica) must not leak the
	// pooled buffers — callers that recover the panic (a server turning
	// it into a 500) would otherwise bleed one allocation per recovery.
	defer pointPool.Put(pb)
	pb.idx[0] = i
	sk.QueryBatch(pb.idx[:], pb.out[:])
	return pb.out[0]
}

// Query answers a point query against the snapshot, lock-free, through
// QueryPoint.
//
//sketch:hotpath
func (sn *Snapshot[S]) Query(i int) float64 { return QueryPoint(sn.sk, i) }

// QueryBatch answers a batch of point queries against the snapshot,
// lock-free, through the replica's batched path (bit-identical to the
// Query loop). The batched paths borrow pooled scratch per call, so
// concurrent QueryBatch calls on one snapshot are safe.
//
//sketch:hotpath
func (sn *Snapshot[S]) QueryBatch(idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("concurrent: batch index count %d != output count %d", len(idx), len(out)))
	}
	sn.sk.QueryBatch(idx, out)
}

// Stale reports whether any shard has absorbed writes since this
// snapshot was published — an atomic epoch comparison, no locks. A
// false result is momentary under concurrent writers.
func (sn *Snapshot[S]) Stale() bool {
	for i := range sn.owner.shards {
		if sn.owner.shards[i].epoch.Load() != sn.epochs[i] {
			return true
		}
	}
	return false
}

// Written reports whether any shard has ever absorbed a write — an
// atomic epoch scan, no locks. Callers about to pay for a merged copy
// (e.g. a sliding window freezing a pane) use it to skip empty shards
// sets entirely.
func (s *Sharded[S]) Written() bool {
	for i := range s.shards {
		if s.shards[i].epoch.Load() != 0 {
			return true
		}
	}
	return false
}

// Snapshot returns the current published snapshot without taking any
// shard lock, building the first one if none has been published yet.
// The view is as fresh as the last Refresh; callers that need the
// latest writes folded in call Refresh instead.
func (s *Sharded[S]) Snapshot() (*Snapshot[S], error) {
	if v := s.view.Load(); v != nil {
		return v, nil
	}
	return s.Refresh()
}

// Refresh folds shards that changed since the last refresh into a new
// immutable snapshot, publishes it atomically, and returns it. Only
// the changed shards are locked — briefly, one at a time, to re-freeze
// their state — so writers stall at most for one state copy; the
// re-sum of the frozen replicas runs without any lock. If nothing
// changed, the published snapshot is returned as is. On a merge error
// the previous snapshot stays published.
func (s *Sharded[S]) Refresh() (*Snapshot[S], error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	for i := range s.shards {
		if s.shards[i].epoch.Load() == s.frozenEpo[i] {
			continue // also covers never-written shards: no frozen copy needed
		}
		epoch, fresh, err := s.freezeShard(i)
		if err != nil {
			return nil, fmt.Errorf("concurrent: freezing shard %d: %w", i, err)
		}
		s.frozen[i] = fresh
		s.frozenEpo[i] = epoch
	}
	// Republish the current view only if it already carries everything
	// frozen — comparing against the view's own epochs (not a "did this
	// call freeze anything" flag) so that a previous refresh that froze
	// state but failed to publish is retried here instead of silently
	// dropping those writes.
	if v := s.view.Load(); v != nil && equalEpochs(v.epochs, s.frozenEpo) {
		return v, nil
	}
	merged := s.mk()
	for i := range s.frozen {
		if s.frozenEpo[i] == 0 {
			continue // never frozen, hence never written: nothing to add
		}
		if err := s.merge(merged, s.frozen[i]); err != nil {
			return nil, fmt.Errorf("concurrent: merging frozen shard %d: %w", i, err)
		}
	}
	WarmReplica(merged)
	snap := &Snapshot[S]{
		owner:  s,
		sk:     merged,
		epochs: append([]uint64(nil), s.frozenEpo...),
	}
	s.view.Store(snap)
	return snap, nil
}

// WarmReplica readies a freshly merged replica for publication, so
// its first reads don't pay for the lazily built query caches. The
// caches are seed-determined and shared process-wide (π and ψ live in
// one per-row cache, see sketch.RowWeights), so warming a replica of
// an already-warm configuration is a lookup, not an O(n·d) rebuild.
func WarmReplica(merged any) {
	if p, ok := merged.(readPreparer); ok {
		p.PrepareRead()
	}
}

// equalEpochs compares two per-shard epoch vectors. A length mismatch
// is "not equal" — fail closed as stale: the vectors can only diverge
// in length through a bug (say, a restore path swapping in a replica
// set of a different shard count), and silently comparing a prefix
// would let a snapshot built for the wrong shard set stay published.
func equalEpochs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freezeShard copies shard i's current state into a fresh replica,
// holding the shard lock with defer so a panicking merge cannot leave
// the shard locked, and returns the epoch the copy is valid for.
func (s *Sharded[S]) freezeShard(i int) (uint64, S, error) {
	fresh := s.mk()
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := s.merge(fresh, sh.sk); err != nil {
		var zero S
		return 0, zero, err
	}
	return sh.epoch.Load(), fresh, nil
}

// fresh returns a snapshot with every write so far folded in: the
// published view if no shard advanced, otherwise a refresh.
func (s *Sharded[S]) fresh() (*Snapshot[S], error) {
	if v := s.view.Load(); v != nil && !v.Stale() {
		return v, nil
	}
	return s.Refresh()
}

// Merged merges all shards into a fresh sketch that the caller owns
// exclusively and may mutate freely — the hand-off shape of the
// distributed model, as opposed to the shared read replica Snapshot
// returns. The merge locks shards one at a time, so concurrent writers
// stall only briefly; the result is a consistent sum of some
// interleaving of the updates.
func (s *Sharded[S]) Merged() (S, error) {
	out := s.mk()
	for i := range s.shards {
		if err := s.mergeShard(out, i); err != nil {
			var zero S
			return zero, fmt.Errorf("concurrent: merging shard %d: %w", i, err)
		}
	}
	return out, nil
}

// mergeShard folds shard idx into out, holding the shard lock with
// defer so a panicking merge cannot leave the shard locked.
func (s *Sharded[S]) mergeShard(out S, idx int) error {
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.merge(out, sh.sk)
}

// Query answers a point query with every write so far folded in,
// refreshing the snapshot only if some shard advanced. For query
// bursts, take one Snapshot and query it directly instead.
//
//sketch:hotpath
func (s *Sharded[S]) Query(i int) (float64, error) {
	snap, err := s.fresh()
	if err != nil {
		return 0, err
	}
	return snap.Query(i), nil
}

// QueryBatch answers a batch of point queries with every write so far
// folded in, refreshing the snapshot only if some shard advanced.
//
//sketch:hotpath
func (s *Sharded[S]) QueryBatch(idx []int, out []float64) error {
	snap, err := s.fresh()
	if err != nil {
		return err
	}
	snap.QueryBatch(idx, out)
	return nil
}

// Shards returns the shard count.
func (s *Sharded[S]) Shards() int { return len(s.shards) }

// Words returns the total memory across shards (P× the single-sketch
// cost — the price of contention-free writes; once snapshots are in
// use, frozen replicas and the published merge add up to P+1 more).
func (s *Sharded[S]) Words() int {
	var w int
	for idx := range s.shards {
		w += s.shards[idx].sk.Words()
	}
	return w
}
