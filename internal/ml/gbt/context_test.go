package gbt

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestTrainContextCancellation(t *testing.T) {
	x, y := synth(11, 200)
	t.Run("exact", func(t *testing.T) {
		p := Params{NumTrees: 50, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}

		// Already-cancelled context: no model, a cancellation error.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m, err := TrainContext(ctx, x, y, names3, p)
		if m != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled train = %v, %v", m, err)
		}

		// Cancel after a few rounds via the snapshot hook.
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		_, err = TrainContextHooks(ctx, x, y, names3, p, TrainHooks{
			SnapshotEvery: 5,
			Snapshot:      func(*Model) error { cancel(); return nil },
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-train cancel err = %v", err)
		}
	})
}

func TestSnapshotResumeBitIdentical(t *testing.T) {
	x, y := synth(22, 300)
	t.Run("exact", func(t *testing.T) {
		p := Params{NumTrees: 40, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1, SafetyWeight: 2}
		ref, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}

		// Snapshot every 8 rounds, cancel right after the second
		// snapshot, resume from it.
		var snap *Model
		snaps := 0
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err = TrainContextHooks(ctx, x, y, names3, p, TrainHooks{
			SnapshotEvery: 8,
			Snapshot: func(m *Model) error {
				snap = m
				if snaps++; snaps == 2 {
					cancel()
				}
				return nil
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel err = %v", err)
		}
		if snap == nil || len(snap.Trees) != 16 {
			t.Fatalf("snapshot has %d trees, want 16", len(snap.Trees))
		}

		resumed, err := TrainContextHooks(context.Background(), x, y, names3, p, TrainHooks{Resume: snap})
		if err != nil {
			t.Fatal(err)
		}
		refBytes, err := ref.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := resumed.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatal("resumed model differs from uninterrupted run")
		}
	})
}

func TestResumeCompatibilityChecks(t *testing.T) {
	x, y := synth(33, 100)
	p := Params{NumTrees: 10, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	m, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong feature names.
	if _, err := TrainContextHooks(context.Background(), x, y, []string{"a", "b", "c"}, p, TrainHooks{Resume: m}); err == nil {
		t.Fatal("resume with renamed features accepted")
	}
	// Different data → different base.
	x2, y2 := synth(44, 100)
	if _, err := TrainContextHooks(context.Background(), x2, y2, names3, p, TrainHooks{Resume: m}); err == nil {
		t.Fatal("resume on different data accepted")
	}
	// More trees than the target.
	small := p
	small.NumTrees = 5
	if _, err := TrainContextHooks(context.Background(), x, y, names3, small, TrainHooks{Resume: m}); err == nil {
		t.Fatal("resume past the tree target accepted")
	}
	// A completed model resumes into an identical model with zero rounds.
	again, err := TrainContextHooks(context.Background(), x, y, names3, p, TrainHooks{Resume: m})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Bytes()
	b, _ := again.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatal("zero-round resume changed the model")
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	x, y := synth(55, 120)
	m, err := Train(x, y, names3, Params{NumTrees: 5, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gbt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Bytes()
	b, _ := got.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatal("SaveFile/LoadModelFile not bit-exact")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "model.gbt" {
			t.Fatalf("unexpected file %s next to saved model", e.Name())
		}
	}
}
