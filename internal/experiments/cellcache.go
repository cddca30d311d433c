package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// cellCacheVersion invalidates every on-disk entry when the simulator or
// the stored result format changes. Bump it whenever a code change can
// alter any cell's numbers; stale-version files are simply never matched
// again (their keys differ) and any that are hit anyway fail the embedded
// version check.
//
// v2: LRU replacement state became counter-free (packed recency
// permutations). Outputs are bit-identical at the scales the repo runs —
// verified against v1 captures — but a paper-scale (scale 1) cell prices
// enough accesses to wrap v1's 32-bit LRU tick, so v1 entries near that
// boundary are not trustworthy and must not be reused. The committed
// fingerprint in testdata/cell_fingerprint.txt is tied to this version;
// regenerate it (go test ./internal/experiments -run Fingerprint -update)
// whenever the version bumps.
const cellCacheVersion = 2

// CellCache persists CellResults on disk so repeated runs skip
// already-simulated cells. Entries are keyed by a hash of (format version,
// Config, Cell): changing any Config field — scale, warmup, measure, seed,
// the large-page variant — produces different keys, so a cache directory
// can safely be shared between configurations and between processes. A nil
// *CellCache is valid and caches nothing, which is how the Runner treats
// "cache disabled".
type CellCache struct {
	dir string
}

// NewCellCache opens (creating if needed) a cache rooted at dir. Entries
// live at dir/<key>.json.
func NewCellCache(dir string) (*CellCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	return &CellCache{dir: dir}, nil
}

// cellEntry is the on-disk format. Config and Cell are stored alongside the
// result and re-verified on load, so a hash collision, a stale format, or a
// corrupted file can never satisfy the wrong lookup — it just misses.
type cellEntry struct {
	Version int
	Cfg     Config
	Cell    Cell
	Result  CellResult
}

// path is the entry file of (cfg, c): the first 16 bytes of a sha256 over
// the version and both structs, hex-encoded.
func (cc *CellCache) path(cfg Config, c Cell) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%+v|%+v", cellCacheVersion, cfg, c)))
	return filepath.Join(cc.dir, hex.EncodeToString(h[:16])+".json")
}

// load returns the cached result for (cfg, c) if present and valid. An
// invalid entry — truncated, corrupted, recording the wrong key, or
// claiming a Failed result (never trustworthy from a cache) — is deleted
// on the spot, so one bad entry costs one re-simulation rather than a
// parse failure on every future run (the cache self-heals).
func (cc *CellCache) load(cfg Config, c Cell) (CellResult, bool) {
	if cc == nil {
		return CellResult{}, false
	}
	path := cc.path(cfg, c)
	data, err := os.ReadFile(path)
	if err != nil {
		return CellResult{}, false
	}
	var e cellEntry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Version != cellCacheVersion || e.Cfg != cfg || e.Cell != c ||
		e.Result.Failed {
		_ = os.Remove(path)
		return CellResult{}, false
	}
	return e.Result, true
}

// store persists the result for (cfg, c). Failed results are never stored:
// a failure can be environmental (timeout, cancellation) and must not
// masquerade as the cell's answer — and load would reject it anyway. Write
// failures are silent: the cache is best-effort and a run must never fail
// because its cache directory did. The write-then-rename keeps any
// concurrent reader from observing partial entries, and os.CreateTemp gives
// every writer its own scratch file: two Runners in one process (the
// server's steady state) or two processes storing the same cell never
// interleave writes — last rename wins, and both rename complete entries.
func (cc *CellCache) store(cfg Config, c Cell, res CellResult) {
	if cc == nil || res.Failed {
		return
	}
	data, err := json.Marshal(cellEntry{
		Version: cellCacheVersion, Cfg: cfg, Cell: c, Result: res,
	})
	if err != nil {
		return
	}
	f, err := os.CreateTemp(cc.dir, "cell-*.tmp")
	if err != nil {
		return
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if cerr := f.Close(); werr != nil || cerr != nil {
		_ = os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, cc.path(cfg, c)); err != nil {
		_ = os.Remove(tmp)
	}
}

// storeCorrupt writes a deliberately broken entry for (cfg, c) — fault
// injection for the self-healing load path (FaultPlan.CacheCorrupt). A
// later load must reject it, delete it, and re-simulate.
func (cc *CellCache) storeCorrupt(cfg Config, c Cell) {
	if cc == nil {
		return
	}
	_ = os.WriteFile(cc.path(cfg, c), []byte(`{"Version":`), 0o644)
}
