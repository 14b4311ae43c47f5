package crashfuzz

import (
	"fmt"
	"sync"
	"testing"
)

// corpusSize is the fixed seed corpus; every seed is one full crash cycle
// (distinct byte-offset crash point, torn WAL frames and torn data pages
// alike), and every third seed additionally tears the first restart
// mid-recovery. CI runs the full corpus; -short keeps local iteration fast.
const corpusSize = 210

// TestCrashFuzz replays the fixed seed corpus and demands zero invariant,
// oracle, or model violations. On failure the seed's repro line is in the
// error text.
func TestCrashFuzz(t *testing.T) {
	calib, err := Calibrate(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if calib < 100_000 {
		t.Fatalf("calibration implausibly small: %d bytes", calib)
	}

	n := int64(corpusSize)
	if testing.Short() {
		n = 24
	}
	var mu sync.Mutex
	sites := make(map[string]int)
	tails := make(map[string]int)
	second := 0

	t.Run("seeds", func(t *testing.T) {
		// Whether a drawn budget lands in the head truncation depends on
		// the schedule; this case places one there deterministically.
		t.Run("truncation", func(t *testing.T) {
			t.Parallel()
			res, err := RunAtTruncate(1, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%v\nrepro: %s", err, res.Repro())
			}
			mu.Lock()
			sites[res.CrashSite]++
			tails[res.TailType]++
			mu.Unlock()
		})
		for seed := int64(1); seed <= n; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				res, err := RunSeed(seed, t.TempDir(), calib)
				if err != nil {
					t.Fatalf("%v\nrepro: %s", err, res.Repro())
				}
				mu.Lock()
				sites[res.CrashSite]++
				tails[res.TailType]++
				if res.SecondCrash {
					second++
				}
				mu.Unlock()
			})
		}
	})

	// Coverage: the corpus must actually tear both the WAL and data pages
	// (directly or via the double-write journal), land crashes on several
	// distinct tail record types, and fire some mid-recovery crashes.
	t.Logf("crash sites: %v", sites)
	t.Logf("survivor tail types: %v", tails)
	t.Logf("mid-recovery crashes: %d", second)
	if testing.Short() {
		return
	}
	if sites["wal"] == 0 {
		t.Error("corpus never tore a WAL write")
	}
	if sites["walt"] == 0 && tails["Truncate"] == 0 {
		t.Error("corpus never exercised the crash-atomic truncation path")
	}
	if sites["pages"]+sites["dw"] == 0 {
		t.Error("corpus never tore a data-page or journal write")
	}
	if second == 0 {
		t.Error("corpus never crashed mid-recovery")
	}
	if len(tails) < 3 {
		t.Errorf("crash points cover only %d tail record types", len(tails))
	}
}
