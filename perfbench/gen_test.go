package main

import (
	"bytes"
	"testing"

	"repro"
)

func TestSeedDeterminesInputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 20261017} {
		if err := selfTest(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFramesAreValidBatches(t *testing.T) {
	ring, err := gen{7}.frames("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ring) != ringFrames {
		t.Fatalf("ring holds %d frames, want %d", len(ring), ringFrames)
	}
	for f, frame := range ring {
		idx, deltas, err := repro.DecodeBatch(bytes.NewReader(frame), dim)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if len(idx) != frameLen {
			t.Fatalf("frame %d holds %d elements, want %d", f, len(idx), frameLen)
		}
		for j, d := range deltas {
			if d < 1 || d != float64(int(d)) {
				t.Fatalf("frame %d element %d: delta %v is not a positive integer", f, j, d)
			}
		}
	}
}
