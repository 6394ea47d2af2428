package telemetry

import (
	"bytes"
	"context"
	"testing"

	"github.com/hotgauge/boreas/internal/checkpoint"
)

func TestBuildWithCheckpointBitIdentical(t *testing.T) {
	cfg := buildTestConfig()
	ref, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store
	first, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Stats(); got.Puts != 4 || got.Hits != 0 {
		t.Fatalf("first build stats: %+v", got)
	}
	assertDatasetsEqual(t, ref, first, "checkpointed build")

	// A second build over the same store replays every fragment.
	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store2
	replayed, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.Stats(); got.Hits != 4 || got.Puts != 0 {
		t.Fatalf("replay stats: %+v", got)
	}
	assertDatasetsEqual(t, ref, replayed, "replayed build")

	// A changed configuration gets different keys, so nothing replays
	// into the wrong campaign.
	cfg2 := cfg
	cfg2.StepsPerRun++
	cfg2.Horizon = 12
	if _, err := Build(context.Background(), cfg2); err != nil {
		t.Fatal(err)
	}
	if got := store2.Stats(); got.Hits != 4 {
		t.Fatalf("changed config replayed stale cells: %+v", got)
	}
}

func TestBuildWalkWithCheckpointBitIdentical(t *testing.T) {
	cfg := WalkConfig{
		Sim:              buildTestConfig().Sim,
		Workloads:        []string{"gamess"},
		Frequencies:      []float64{3.0, 3.5, 4.0},
		StepsPerWalk:     60,
		HoldSteps:        20,
		Horizon:          12,
		WalksPerWorkload: 2,
		Seed:             1,
	}
	ref, err := BuildWalk(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store
	if _, err := BuildWalk(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	replayed, err := BuildWalk(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Puts != 2 || st.Hits != 2 {
		t.Fatalf("walk stats: %+v", st)
	}
	assertDatasetsEqual(t, ref, replayed, "replayed walk")
}

func TestScopesExcludeWorkersAndStore(t *testing.T) {
	a := buildTestConfig()
	b := a
	b.Workers = 8
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.Checkpoint = store
	sa, err := a.BuildScope()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.BuildScope()
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatal("worker count or store pointer leaked into the scope")
	}
	c := a
	c.Horizon++
	sc, err := c.BuildScope()
	if err != nil {
		t.Fatal(err)
	}
	if sa == sc {
		t.Fatal("content-affecting config change did not change the scope")
	}
}

func TestCorruptFragmentIsRebuilt(t *testing.T) {
	cfg := buildTestConfig()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store
	ref, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replace a fragment with bytes that pass the digest check (the store
	// is told about them) but fail the CSV decode.
	scope, err := cfg.BuildScope()
	if err != nil {
		t.Fatal(err)
	}
	key := scope.Key("fragment", "gamess", checkpoint.FormatFloat(3.0))
	if err := store.Put(key, "dataset-fragment", []byte("not,a\nvalid,csv")); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, ref, rebuilt, "rebuild after fragment corruption")
	if st := store.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats after corruption: %+v", st)
	}
}

// assertDatasetsEqual compares two datasets bit-exactly via the CSV
// encoding (which round-trips float64 in shortest exact form).
func assertDatasetsEqual(t *testing.T, want, got *Dataset, what string) {
	t.Helper()
	var wb, gb bytes.Buffer
	if err := want.WriteCSV(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: dataset differs from reference", what)
	}
}
