package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func cacheFixture(t *testing.T) (*CellCache, Config, Cell, CellResult) {
	t.Helper()
	cc, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 8}
	return cc, DefaultConfig(), cell, CellResult{Cell: cell, Footprint: 4242.5, TxnsPerStream: 3}
}

// plant writes raw entry JSON for e at its key, the way another (older or
// buggy) writer sharing the directory could.
func plant(t *testing.T, cc *CellCache, e cellEntry) string {
	t.Helper()
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	path := cc.path(e.Cfg, e.Cell)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// onDisk runs one cache guarantee as a "disk" subtest on a fresh
// disk-backed CellCache, the store every cache directory uses.
func onDisk(t *testing.T, fn func(t *testing.T, cc *CellCache, cfg Config, cell Cell, res CellResult)) {
	t.Helper()
	t.Run("disk", func(t *testing.T) {
		cc, cfg, cell, res := cacheFixture(t)
		fn(t, cc, cfg, cell, res)
	})
}

// TestCacheBackendRoundtrip: a stored entry loads back deep-equal, is
// addressed by (version, Config, Cell) rather than the cell alone, and
// misses once its file is gone.
func TestCacheBackendRoundtrip(t *testing.T) {
	onDisk(t, func(t *testing.T, cc *CellCache, cfg Config, cell Cell, res CellResult) {
		if _, ok := cc.load(cfg, cell); ok {
			t.Fatal("empty cache reported a hit")
		}
		cc.store(cfg, cell, res)
		got, ok := cc.load(cfg, cell)
		if !ok {
			t.Fatal("stored entry missed")
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("loaded %+v, stored %+v", got, res)
		}
		other := cfg
		other.Seed++
		if _, ok := cc.load(other, cell); ok {
			t.Fatal("entry for a different config hit")
		}
		if err := os.Remove(cc.path(cfg, cell)); err != nil {
			t.Fatal(err)
		}
		if _, ok := cc.load(cfg, cell); ok {
			t.Fatal("deleted entry still hit")
		}
	})
}

// TestCacheBackendVersionMismatchSelfHeals: an otherwise valid entry
// claiming another format version at the current key (a hash collision
// across versions, or a corrupted version field) is never served, and is
// deleted.
func TestCacheBackendVersionMismatchSelfHeals(t *testing.T) {
	onDisk(t, func(t *testing.T, cc *CellCache, cfg Config, cell Cell, res CellResult) {
		path := plant(t, cc, cellEntry{Version: cellCacheVersion + 1, Cfg: cfg, Cell: cell, Result: res})
		if _, ok := cc.load(cfg, cell); ok {
			t.Fatal("stale-version entry served")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("stale-version entry not self-healed away")
		}
	})
}

// TestCacheBackendCorruptEntrySelfHeals: a truncated entry is never served,
// and is deleted.
func TestCacheBackendCorruptEntrySelfHeals(t *testing.T) {
	onDisk(t, func(t *testing.T, cc *CellCache, cfg Config, cell Cell, _ CellResult) {
		cc.storeCorrupt(cfg, cell)
		path := cc.path(cfg, cell)
		if _, err := os.Stat(path); err != nil {
			t.Fatal("corrupt entry was not written")
		}
		if _, ok := cc.load(cfg, cell); ok {
			t.Fatal("corrupt entry served")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("corrupt entry not self-healed away")
		}
	})
}

// TestCacheBackendRejectsFailedResults: a failure can be environmental, so a
// Failed result is refused at store time, and a Failed entry planted by
// another writer is rejected on load and deleted.
func TestCacheBackendRejectsFailedResults(t *testing.T) {
	onDisk(t, func(t *testing.T, cc *CellCache, cfg Config, cell Cell, res CellResult) {
		res.Failed = true
		cc.store(cfg, cell, res)
		path := cc.path(cfg, cell)
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("Failed result was stored")
		}
		plant(t, cc, cellEntry{Version: cellCacheVersion, Cfg: cfg, Cell: cell, Result: res})
		if _, ok := cc.load(cfg, cell); ok {
			t.Fatal("Failed entry served")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("Failed entry not self-healed away")
		}
	})
}

// TestCacheBackendConcurrentStore: concurrent stores of one cell leave one
// complete entry that loads back deep-equal.
func TestCacheBackendConcurrentStore(t *testing.T) {
	onDisk(t, func(t *testing.T, cc *CellCache, cfg Config, cell Cell, res CellResult) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cc.store(cfg, cell, res)
			}()
		}
		wg.Wait()
		got, ok := cc.load(cfg, cell)
		if !ok {
			t.Fatal("entry missing after concurrent stores")
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("loaded %+v after concurrent stores, want %+v", got, res)
		}
	})
}

// TestDiskLayoutUnchanged pins the on-disk format: dir/<key>.json holding
// the raw entry JSON, with key the first 16 bytes of sha256 over
// "v<version>|<Config>|<Cell>", hex-encoded. Cache directories written by
// earlier builds keep hitting as long as this holds.
func TestDiskLayoutUnchanged(t *testing.T) {
	cc, cfg, cell, res := cacheFixture(t)
	cc.store(cfg, cell, res)
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%+v|%+v", cellCacheVersion, cfg, cell)))
	path := filepath.Join(cc.dir, hex.EncodeToString(h[:16])+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no entry at the historical path: %v", err)
	}
	var e cellEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != cellCacheVersion ||
		e.Cfg != cfg || e.Cell != cell || !reflect.DeepEqual(e.Result, res) {
		t.Fatalf("entry at %s is not the raw cellEntry JSON: %s", path, data)
	}
	// A second cache opened on the same directory must hit the entry.
	cc2, err := NewCellCache(cc.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cc2.load(cfg, cell); !ok {
		t.Fatal("reopened disk cache missed a stored entry")
	}
}
