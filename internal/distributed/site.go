package distributed

import (
	"bytes"
	"fmt"

	"repro/internal/codec"
	"repro/internal/concurrent"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// A site is one leaf of the aggregation tree: a concurrent.Sharded
// replica set absorbing the site's local update stream, plus the
// bookkeeping that makes delta shipping possible — the per-shard
// epoch vector the parent last acknowledged, the wire-v2 checkpoint
// the churn simulator restarts it from, and the rejoin flag that
// forces a full-state frame after a restart.
//
// Updates route to shard (key mod shards), so a skewed key
// distribution concentrates writes on few shards and a sync ships few
// sections — the communication saving the delta protocol exists for.
type site struct {
	id     int
	shards int
	rep    *concurrent.Sharded[sketch.Sketch]
	stream []stream.Update
	pos    int

	// acked[i] is shard i's epoch as of the last frame the parent
	// accepted; a shard ships only when its live epoch differs.
	acked []uint64
	// rejoin forces the next frame to carry full state: the site
	// restarted from checkpoint, so the parent's view of it is stale
	// from the future and must be reset wholesale.
	rejoin bool

	// Last durable checkpoint: a wire-v2 sharded container plus the
	// stream position it covers. nil state means no checkpoint was
	// ever taken — a restart then rewinds to an empty replica set at
	// position zero and replays the whole stream.
	ckptState []byte
	ckptPos   int

	epochScratch []uint64
}

// newSite builds site id over its stream with a fresh replica set.
func newSite(id int, desc codec.Desc, e *registry.Entry, shards int, updates []stream.Update) (*site, error) {
	rep, err := newReplicaSet(desc, e, shards)
	if err != nil {
		return nil, err
	}
	return &site{
		id:           id,
		shards:       shards,
		rep:          rep,
		stream:       updates,
		acked:        make([]uint64, shards),
		epochScratch: make([]uint64, 0, shards),
	}, nil
}

// newReplicaSet builds a Sharded replica set of the fabric's shape,
// converting a constructor panic into an error once up front.
func newReplicaSet(desc codec.Desc, e *registry.Entry, shards int) (*concurrent.Sharded[sketch.Sketch], error) {
	if _, err := registry.SafeNew(desc.Algo, desc.Shape()); err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	mk := func() sketch.Sketch { return e.MustNew(desc.Shape()) }
	return concurrent.New(shards, mk, registry.Merge), nil
}

// ingest applies up to budget stream updates and reports how many ran.
// Updates route to the shard owning the key, so per-shard epochs track
// which key ranges moved.
func (s *site) ingest(budget int) int {
	end := s.pos + budget
	if end > len(s.stream) {
		end = len(s.stream)
	}
	applied := end - s.pos
	for ; s.pos < end; s.pos++ {
		u := s.stream[s.pos]
		s.rep.Update(u.I, u.I, u.Delta)
	}
	return applied
}

// checkpoint captures the site's durable state: the replica set as a
// wire-v2 sharded container plus the stream position it covers. A
// restart restores exactly this pair and replays the stream from the
// saved position, so no update is ever lost or double-applied.
func (s *site) checkpoint(desc codec.Desc) error {
	var buf bytes.Buffer
	if err := codec.EncodeSharded(&buf, desc, s.rep); err != nil {
		return fmt.Errorf("distributed: site %d checkpoint: %w", s.id, err)
	}
	s.ckptState = buf.Bytes()
	s.ckptPos = s.pos
	return nil
}

// restart simulates a crash + reboot: all in-memory state is dropped
// and the site restores from its last checkpoint (or boots empty if
// none was ever taken), rewinding the stream to the checkpointed
// position. The next frame it ships is a full-state resynchronization.
func (s *site) restart(desc codec.Desc, e *registry.Entry) error {
	if s.ckptState == nil {
		rep, err := newReplicaSet(desc, e, s.shards)
		if err != nil {
			return err
		}
		s.rep = rep
		s.pos = 0
	} else {
		rep, rdesc, err := codec.DecodeSharded(bytes.NewReader(s.ckptState))
		if err != nil {
			return fmt.Errorf("distributed: site %d restore: %w", s.id, err)
		}
		if rdesc != desc || rep.Shards() != s.shards {
			return fmt.Errorf("%w: site %d checkpoint shape changed", ErrFrameMismatch, s.id)
		}
		s.rep = rep
		s.pos = s.ckptPos
	}
	s.acked = make([]uint64, s.shards)
	s.rejoin = true
	return nil
}

// emit builds the site's frame for this round: nil when nothing
// changed and no resynchronization is due, a delta frame carrying only
// the shards whose epoch advanced past the acknowledged vector, or a
// full-state frame when the site just rejoined (or the fabric runs in
// full-state mode). The returned epochs are recorded as acknowledged —
// the simulation's hop is synchronous, so shipping is acking.
func (s *site) emit(desc codec.Desc, e *registry.Entry, mode ShipMode) (*codec.DeltaFrame, error) {
	full := s.rejoin || mode == ShipFull
	s.epochScratch = s.rep.Epochs(s.epochScratch[:0])
	var want []int
	for i, ep := range s.epochScratch {
		if full || ep != s.acked[i] {
			want = append(want, i)
		}
	}
	if len(want) == 0 {
		return nil, nil
	}
	frame := &codec.DeltaFrame{Desc: desc, Full: full, Shards: s.shards}
	for _, i := range want {
		// Capture a private copy under the shard lock: the frame must
		// stay stable while it is encoded, merged, and forwarded.
		copyErr := s.rep.CheckpointShard(i, func(epoch uint64, sk sketch.Sketch) error {
			cp := e.MustNew(desc.Shape())
			if err := registry.Merge(cp, sk); err != nil {
				return err
			}
			frame.Entries = append(frame.Entries, codec.DeltaEntry{Shard: i, Epoch: epoch, Sk: cp})
			return nil
		})
		if copyErr != nil {
			return nil, fmt.Errorf("distributed: site %d shard %d capture: %w", s.id, i, copyErr)
		}
	}
	for _, en := range frame.Entries {
		s.acked[en.Shard] = en.Epoch
	}
	s.rejoin = false
	return frame, nil
}
