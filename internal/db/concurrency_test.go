package db

import (
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/tuple"
)

// TestConcurrentReadersAndWriter hammers the engine with one writer
// and several readers; run with -race. The writer's view must always
// be internally consistent (readers may observe any committed state).
func TestConcurrentReadersAndWriter(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "snap"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}

	const nTx = 200
	q := joinViewDef(t, e, "q")
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 5 {
				case 0:
					if _, err := e.View("v"); err != nil {
						t.Errorf("View: %v", err)
						return
					}
				case 1:
					if _, err := e.Relation("R"); err != nil {
						t.Errorf("Relation: %v", err)
						return
					}
				case 2:
					if _, err := e.ViewStats("v"); err != nil {
						t.Errorf("ViewStats: %v", err)
						return
					}
				case 3:
					_ = e.Views()
				case 4:
					// Query runs the engine's evaluator lock-free on a
					// snapshot, probing the snapshot relations' own
					// indexes: under -race this catches a commit that
					// writes an index a reader still holds.
					if _, err := e.Query(q); err != nil {
						t.Errorf("Query: %v", err)
						return
					}
				}
				if i%16 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(r)
	}

	// One refresher for the deferred view. The pause keeps the
	// write-lock acquisitions from ping-ponging with the readers,
	// which would stretch the test without exercising anything new.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.RefreshView("snap"); err != nil {
				t.Errorf("RefreshView: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Writer.
	for i := 0; i < nTx; i++ {
		var tx delta.Tx
		tx.Insert("R", tuple.New(int64(i), int64(i%7)))
		tx.Insert("S", tuple.New(int64(i%7), int64(i)))
		if i%3 == 0 {
			tx.Delete("R", tuple.New(int64(i/2), int64((i/2)%7)))
		}
		if _, err := e.Execute(&tx); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// Final consistency: the differential view equals the reference
	// evaluator over the final relations.
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.View("v")
	snap, _ := e.View("snap")
	if !got.Equal(snap) {
		t.Error("immediate and deferred copies diverged")
	}
	if want := referenceView(t, e, joinViewDef(t, e, "v")); !got.Equal(want) {
		t.Errorf("view diverged from the reference evaluator:\n got %v\nwant %v", got, want)
	}
}
