package memsys

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"webmm/internal/bus"
)

func testLink() bus.Model {
	return bus.Model{BytesPerCycle: 4.3, BytesPerTxn: 64, MaxUtil: 0.93}
}

// The Bus adapter must be arithmetically indistinguishable from consulting
// the bus model directly — that is the default path's bit-identical
// contract.
func TestBusAdapterMatchesLink(t *testing.T) {
	link := testLink()
	b := NewBus(link)
	for _, txns := range []uint64{0, 1, 1000, 123456789} {
		for _, wall := range []float64{0, 1, 1e6, 3.7e9} {
			if got, want := b.Utilization(txns, wall), link.Utilization(txns, wall); got != want {
				t.Fatalf("Utilization(%d, %v) = %v, want %v", txns, wall, got, want)
			}
		}
	}
	for _, u := range []float64{-1, 0, 0.5, 0.93, 2} {
		if got, want := b.LatencyMultiplier(u), link.LatencyMultiplier(u); got != want {
			t.Fatalf("LatencyMultiplier(%v) = %v, want %v", u, got, want)
		}
	}
	if b.Recorder() != nil {
		t.Error("bus recorder should be nil (machine skips recording)")
	}
	if b.Stats() != nil {
		t.Error("bus stats should be nil (keeps result JSON unchanged)")
	}
	if b.CoreFactor(3) != 1 {
		t.Error("bus core factor must be exactly 1")
	}
	if b.Name() != "bus" {
		t.Errorf("Name() = %q", b.Name())
	}
	if b.Link() != link {
		t.Errorf("Link() = %+v", b.Link())
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []PolicyName{PolicyFRFCFS, PolicyATLAS, PolicyTCM, PolicyBLISS}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	for _, d := range Policies() {
		if d.Doc == "" || d.Ref == "" {
			t.Errorf("policy %s missing doc or ref", d.Name)
		}
		got, err := PolicyByName(d.Name)
		if err != nil || got.Name != d.Name {
			t.Errorf("PolicyByName(%q): %v", d.Name, err)
		}
	}
	_, err := PolicyByName("fifo")
	if err == nil {
		t.Fatal("PolicyByName(fifo) succeeded")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), string(n)) {
			t.Errorf("unknown-policy error %q does not name candidate %s", err, n)
		}
	}
	if UsagePolicies() == "" || PoliciesMarkdown() == "" {
		t.Error("empty generated policy docs")
	}
}

// lcg is a tiny deterministic generator for synthetic miss streams.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 16
}

func feed(t *testing.T, d *DRAM, n int, cores int) {
	t.Helper()
	g := lcg(42)
	for i := 0; i < n; i++ {
		// Mix sequential sweeps (row locality) with random lines.
		var line uint64
		if i%3 != 0 {
			line = uint64(i) * 7 / 3
		} else {
			line = g.next() % (1 << 20)
		}
		kind := Kind(i % 3)
		d.Record(line, i%cores, kind)
	}
}

func TestDRAMDeterministic(t *testing.T) {
	for _, p := range PolicyNames() {
		a, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 4)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, a, 5000, 4)
		feed(t, b, 5000, 4)
		if !reflect.DeepEqual(a.Stats(), b.Stats()) {
			t.Errorf("%s: same stream produced different stats:\n%+v\n%+v", p, a.Stats(), b.Stats())
		}
	}
}

func TestDRAMAccounting(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{}, testLink(), 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, 5000, 4)
	s := d.Stats()
	if s.Total() != 5000 {
		t.Fatalf("total %d, want 5000", s.Total())
	}
	if s.RowHits+s.RowClosed+s.RowConflicts != 5000 {
		t.Fatalf("row outcomes %d+%d+%d don't sum to 5000", s.RowHits, s.RowClosed, s.RowConflicts)
	}
	if s.Reads == 0 || s.Writebacks == 0 || s.Prefetches == 0 {
		t.Errorf("kind split incomplete: %+v", s)
	}
	if s.MaxQueueDepth < 1 || s.AvgQueueDepth <= 0 {
		t.Errorf("queue stats missing: max %d avg %v", s.MaxQueueDepth, s.AvgQueueDepth)
	}
	if s.RowFactor <= 0 {
		t.Errorf("row factor %v", s.RowFactor)
	}
}

// A purely sequential sweep should be dominated by open-row hits under
// FR-FCFS; ping-ponging between two rows of the same bank with no
// reordering freedom (window 1) must conflict on every access after the
// first two.
func TestDRAMRowBufferBehavior(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{}, testLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for line := uint64(0); line < 4096; line++ {
		d.Record(line, 0, Read)
	}
	if r := d.Stats().RowHitRate(); r < 0.8 {
		t.Errorf("sequential sweep row-hit rate %v, want > 0.8", r)
	}

	// Same channel (even lines), same bank (rowGlobal ≡ 0 mod banks),
	// different rows.
	fc, err := NewDRAM(DRAMConfig{Window: 1}, testLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	linesPerRow := fc.cfg.RowBytes / 64
	banksPerChannel := uint64(fc.cfg.RanksPerChannel * fc.cfg.BanksPerRank)
	strideLines := uint64(fc.cfg.Channels) * linesPerRow * banksPerChannel
	for i := 0; i < 100; i++ {
		fc.Record(uint64(i%2)*strideLines, 0, Read)
	}
	s := fc.Stats()
	if s.RowConflicts != 99 || s.RowClosed != 1 {
		t.Errorf("ping-pong: conflicts %d closed %d hits %d, want 99/1/0", s.RowConflicts, s.RowClosed, s.RowHits)
	}
}

// Per-core factors must have request-weighted mean 1 (so redistributing
// latency between cores never changes the aggregate bandwidth story) and
// idle cores must get exactly 1.
func TestDRAMCoreFactorsNormalized(t *testing.T) {
	for _, p := range PolicyNames() {
		d, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 8)
		if err != nil {
			t.Fatal(err)
		}
		// Cores 0..3 active with skewed demand; cores 4..7 idle.
		g := lcg(7)
		for i := 0; i < 8000; i++ {
			core := 0
			switch {
			case i%8 < 4:
				core = 0 // heavy
			case i%8 < 6:
				core = 1
			case i%8 == 6:
				core = 2
			default:
				core = 3 // light
			}
			d.Record(g.next()%(1<<18), core, Read)
		}
		s := d.Stats()
		var weighted float64
		var reqs uint64
		for c := 0; c < 8; c++ {
			f := d.CoreFactor(c)
			if f <= 0 {
				t.Errorf("%s: core %d factor %v", p, c, f)
			}
			if c >= 4 && f != 1 {
				t.Errorf("%s: idle core %d factor %v, want exactly 1", p, c, f)
			}
			weighted += f * float64(d.coreReqs[c])
			reqs += d.coreReqs[c]
		}
		mean := weighted / float64(reqs)
		if mean < 0.999999 || mean > 1.000001 {
			t.Errorf("%s: request-weighted mean factor %v, want 1", p, mean)
		}
		if len(s.CoreFactors) != 8 {
			t.Errorf("%s: stats carry %d core factors, want 8", p, len(s.CoreFactors))
		}
	}
}

// With no recorded traffic the DRAM model must collapse to the bus model:
// multiplier identical, factors 1 — a cell whose measured rounds generate
// no misses prices the same either way.
func TestDRAMNoTrafficMatchesBus(t *testing.T) {
	link := testLink()
	d, err := NewDRAM(DRAMConfig{}, link, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.LatencyMultiplier(0.5), link.LatencyMultiplier(0.5); got != want {
		t.Errorf("multiplier %v, want %v", got, want)
	}
	if d.CoreFactor(0) != 1 || d.CoreFactor(1) != 1 {
		t.Error("idle core factors must be 1")
	}
	if s := d.Stats(); s.Total() != 0 || s.RowFactor != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestNewDRAMValidation(t *testing.T) {
	if _, err := NewDRAM(DRAMConfig{Policy: "lifo"}, testLink(), 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewDRAM(DRAMConfig{RowBytes: 100}, testLink(), 1); err == nil {
		t.Error("non-line-multiple row size accepted")
	}
	if _, err := NewDRAM(DRAMConfig{RowBytes: 3 * 64}, testLink(), 1); err == nil {
		t.Error("non-power-of-two row size accepted")
	}
	if _, err := NewDRAM(DRAMConfig{RowBytes: 32}, testLink(), 1); err == nil {
		t.Error("row smaller than a line accepted")
	}
	if _, err := NewDRAM(DRAMConfig{Channels: 3}, testLink(), 1); err == nil {
		t.Error("non-power-of-two channel count accepted")
	}
	if _, err := NewDRAM(DRAMConfig{RanksPerChannel: 6}, testLink(), 1); err == nil {
		t.Error("non-power-of-two rank count accepted")
	}
	if _, err := NewDRAM(DRAMConfig{BanksPerRank: -8}, testLink(), 1); err == nil {
		t.Error("negative bank count accepted")
	}
	for _, w := range []int{-1, maxWindow + 1} {
		if _, err := NewDRAM(DRAMConfig{Window: w}, testLink(), 1); err == nil {
			t.Errorf("window %d accepted", w)
		}
	}
	if _, err := NewDRAM(DRAMConfig{Channels: 4, RanksPerChannel: 1, BanksPerRank: 16, RowBytes: 2 << 10, Window: maxWindow}, testLink(), 1); err != nil {
		t.Errorf("valid power-of-two geometry rejected: %v", err)
	}
	if _, err := NewDRAM(DRAMConfig{}, testLink(), 0); err == nil {
		t.Error("zero cores accepted")
	}
}

// ATLAS must favour the core with the least attained service: the light
// core's factor cannot exceed the heavy core's.
func TestATLASFavoursLightCore(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{Policy: PolicyATLAS}, testLink(), 2)
	if err != nil {
		t.Fatal(err)
	}
	g := lcg(3)
	for i := 0; i < 6000; i++ {
		core := 0
		if i%8 == 0 {
			core = 1 // light core: 1/8 of the traffic
		}
		d.Record(g.next()%(1<<16), core, Read)
	}
	heavy, light := d.CoreFactor(0), d.CoreFactor(1)
	if light > heavy {
		t.Errorf("ATLAS light-core factor %v > heavy-core %v", light, heavy)
	}
}

// refScheduler is the DRAM model's original window service, kept as the
// reference the per-policy window services must match bit for bit: pick
// the best request by a full scan of the window, serve it, and remove it
// with a memmove — O(W²) per window.
type refScheduler struct {
	pick   func(pending []request, openRow int64) int
	served func(core int32, units float64)
}

func (s refScheduler) serveWindow(d *DRAM, b *bank) {
	elapsed := 0.0
	for len(b.pending) > 0 {
		idx := s.pick(b.pending, b.openRow)
		r := b.pending[idx]
		var units float64
		switch {
		case r.row == b.openRow:
			units = d.cfg.HitFactor
			d.hits++
		case b.openRow == rowClosed:
			units = d.cfg.ClosedFactor
			d.closed++
		default:
			units = d.cfg.ConflictFactor
			d.conflicts++
		}
		b.openRow = r.row
		d.coreScore[r.core] += elapsed + units
		d.coreReqs[r.core]++
		elapsed += units
		s.served(r.core, units)
		b.pending = append(b.pending[:idx], b.pending[idx+1:]...)
	}
}

// newRefDRAM builds a DRAM model whose windows are served by the reference
// scheduler of cfg's policy.
func newRefDRAM(t testing.TB, cfg DRAMConfig, nCores int) *DRAM {
	d, err := NewDRAM(cfg, testLink(), nCores)
	if err != nil {
		t.Fatal(err)
	}
	d.sched = newRefScheduler(d.cfg.Policy, nCores)
	return d
}

func newRefScheduler(name PolicyName, nCores int) refScheduler {
	switch name {
	case PolicyFRFCFS:
		return refScheduler{pick: refFRFCFSPick, served: func(int32, float64) {}}
	case PolicyATLAS:
		a := &refATLAS{attained: make([]float64, nCores)}
		return refScheduler{pick: a.pick, served: a.served}
	case PolicyTCM:
		tc := &refTCM{epochReqs: make([]uint64, nCores), bwHeavy: make([]bool, nCores)}
		return refScheduler{pick: tc.pick, served: tc.served}
	case PolicyBLISS:
		b := &refBLISS{blacklisted: make([]bool, nCores)}
		return refScheduler{pick: b.pick, served: b.served}
	}
	panic("unregistered policy " + string(name))
}

// pickBest scans pending for the request with the lowest key; ties break to
// the earlier index, which is the older request (pending is arrival-ordered
// and seq increases monotonically).
func pickBest(pending []request, less func(a, b int) bool) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if less(i, best) {
			best = i
		}
	}
	return best
}

func refFRFCFSPick(pending []request, openRow int64) int {
	return pickBest(pending, func(a, b int) bool {
		ha, hb := pending[a].row == openRow, pending[b].row == openRow
		if ha != hb {
			return ha
		}
		return pending[a].seq < pending[b].seq
	})
}

type refATLAS struct {
	attained []float64
}

func (a *refATLAS) pick(pending []request, openRow int64) int {
	return pickBest(pending, func(x, y int) bool {
		ax, ay := a.attained[pending[x].core], a.attained[pending[y].core]
		if ax != ay {
			return ax < ay
		}
		hx, hy := pending[x].row == openRow, pending[y].row == openRow
		if hx != hy {
			return hx
		}
		return pending[x].seq < pending[y].seq
	})
}

func (a *refATLAS) served(core int32, units float64) { a.attained[core] += units }

type refTCM struct {
	epochReqs []uint64
	bwHeavy   []bool
	services  uint64
}

func (t *refTCM) pick(pending []request, openRow int64) int {
	return pickBest(pending, func(a, b int) bool {
		ba, bb := t.bwHeavy[pending[a].core], t.bwHeavy[pending[b].core]
		if ba != bb {
			return !ba
		}
		ha, hb := pending[a].row == openRow, pending[b].row == openRow
		if ha != hb {
			return ha
		}
		return pending[a].seq < pending[b].seq
	})
}

func (t *refTCM) served(core int32, units float64) {
	t.epochReqs[core]++
	t.services++
	if t.services%tcmEpoch != 0 {
		return
	}
	var total uint64
	active := 0
	for _, n := range t.epochReqs {
		total += n
		if n > 0 {
			active++
		}
	}
	if active == 0 {
		return
	}
	fair := total / uint64(active)
	for c, n := range t.epochReqs {
		t.bwHeavy[c] = n > fair
		t.epochReqs[c] = 0
	}
}

type refBLISS struct {
	blacklisted []bool
	streakCore  int32
	streak      int
	services    uint64
}

func (b *refBLISS) pick(pending []request, openRow int64) int {
	return pickBest(pending, func(x, y int) bool {
		bx, by := b.blacklisted[pending[x].core], b.blacklisted[pending[y].core]
		if bx != by {
			return !bx
		}
		hx, hy := pending[x].row == openRow, pending[y].row == openRow
		if hx != hy {
			return hx
		}
		return pending[x].seq < pending[y].seq
	})
}

func (b *refBLISS) served(core int32, units float64) {
	if core == b.streakCore {
		b.streak++
		if b.streak >= blissStreak {
			b.blacklisted[core] = true
		}
	} else {
		b.streakCore, b.streak = core, 1
	}
	b.services++
	if b.services%blissClear == 0 {
		for c := range b.blacklisted {
			b.blacklisted[c] = false
		}
	}
}

// missStream is a synthetic miss stream in record order.
type missStream struct {
	lines []uint64
	cores []int32
	kinds []Kind
}

func (s *missStream) add(line uint64, core int, kind Kind) {
	s.lines = append(s.lines, line)
	s.cores = append(s.cores, int32(core))
	s.kinds = append(s.kinds, kind)
}

func (s *missStream) replay(d *DRAM) *Stats {
	for i, line := range s.lines {
		d.Record(line, int(s.cores[i]), s.kinds[i])
	}
	return d.Stats()
}

// uniformStream draws every line uniformly from a 256 MiB footprint, on
// uniformly drawn cores: few row hits, many conflicts.
func uniformStream(seed uint64, n, cores int) *missStream {
	g := lcg(seed)
	s := &missStream{}
	for i := 0; i < n; i++ {
		s.add(g.next()%(1<<22), int(g.next()%uint64(cores)), Kind(g.next()%3))
	}
	return s
}

// sweepStream interleaves per-core sequential sweeps, each through its own
// heap region and restarting at a random line now and then: row-local
// traffic whose rows compete within each bank's window.
func sweepStream(seed uint64, n, cores int) *missStream {
	g := lcg(seed)
	s := &missStream{}
	next := make([]uint64, cores)
	for c := range next {
		next[c] = uint64(c) << 24
	}
	for i := 0; i < n; i++ {
		c := int(g.next() % uint64(cores))
		if g.next()%64 == 0 {
			next[c] = uint64(c)<<24 | g.next()%(1<<20)
		}
		s.add(next[c], c, Kind(g.next()%3))
		next[c] += 1 + g.next()%2
	}
	return s
}

// mixStream has core 0 sweep while the other cores draw uniform lines at
// skewed rates, so the ranked policies' classes keep changing; with one
// core every request is core 0's.
func mixStream(seed uint64, n, cores int) *missStream {
	g := lcg(seed)
	s := &missStream{}
	sweep := uint64(0)
	for i := 0; i < n; i++ {
		c := 0
		if others := uint64(cores - 1); others > 0 && g.next()%2 == 0 {
			// The product of two draws favours the low-numbered cores.
			c = 1 + int((g.next()%others)*(g.next()%others)/others)
		}
		if c == 0 && g.next()%4 != 0 {
			s.add(sweep, 0, Read)
			sweep++
			continue
		}
		s.add(g.next()%(1<<20), c, Kind(g.next()%3))
	}
	return s
}

// checkAgainstReference replays s through the policy's window service and
// through the reference scheduler and requires identical Stats.
func checkAgainstReference(t testing.TB, p PolicyName, window, cores int, s *missStream) {
	cfg := DRAMConfig{Policy: p, Window: window}
	d, err := NewDRAM(cfg, testLink(), cores)
	if err != nil {
		t.Fatal(err)
	}
	got, want := s.replay(d), s.replay(newRefDRAM(t, cfg, cores))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s window %d, %d cores: stats differ from the reference\n got %+v\nwant %+v", p, window, cores, got, want)
	}
}

// Each policy's window service must reproduce the original pick-and-remove
// scheduler exactly — every counter and every float — for every window
// size, on random, row-local and mixed streams.
func TestDRAMServiceMatchesReference(t *testing.T) {
	streams := []struct {
		name  string
		cores int
		s     *missStream
	}{
		{"uniform", 8, uniformStream(1, 20000, 8)},
		{"sweep", 8, sweepStream(2, 20000, 8)},
		{"mix-1core", 1, mixStream(3, 20000, 1)},
		{"mix-8core", 8, mixStream(4, 20000, 8)},
	}
	for _, p := range PolicyNames() {
		for _, w := range []int{1, 2, 7, 32, 64} {
			for _, st := range streams {
				t.Run(fmt.Sprintf("%s/w%d/%s", p, w, st.name), func(t *testing.T) {
					checkAgainstReference(t, p, w, st.cores, st.s)
				})
			}
		}
	}
}

func FuzzDRAMService(f *testing.F) {
	f.Add(uint64(1), uint8(31), uint8(0), uint8(7))
	f.Add(uint64(2), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(6), uint8(2), uint8(3))
	f.Add(uint64(4), uint8(63), uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, window, policy, cores uint8) {
		names := PolicyNames()
		p := names[int(policy)%len(names)]
		nc := 1 + int(cores)%8
		var s *missStream
		switch seed % 3 {
		case 0:
			s = uniformStream(seed, 3000, nc)
		case 1:
			s = sweepStream(seed, 3000, nc)
		default:
			s = mixStream(seed, 3000, nc)
		}
		checkAgainstReference(t, p, 1+int(window)%64, nc, s)
	})
}

// The shift-and-mask address map must equal the division form it replaced:
// channel = line mod C, rowGlobal = line / C / linesPerRow, bank = channel ×
// banksPerChannel + rowGlobal mod banksPerChannel, row = rowGlobal /
// banksPerChannel.
func TestDRAMAddressMap(t *testing.T) {
	for _, cfg := range []DRAMConfig{
		{},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, RowBytes: 64},
		{Channels: 4, RanksPerChannel: 1, BanksPerRank: 16, RowBytes: 2 << 10},
		{Channels: 8, RanksPerChannel: 4, BanksPerRank: 8, RowBytes: 64 << 10},
	} {
		d, err := NewDRAM(cfg, testLink(), 1)
		if err != nil {
			t.Fatal(err)
		}
		c := d.cfg
		channels, bpc := uint64(c.Channels), uint64(c.RanksPerChannel*c.BanksPerRank)
		lines := []uint64{0, 1, 63, 64, 1<<20 - 1, 1 << 40, ^uint64(0) >> 6, ^uint64(0)}
		g := lcg(9)
		for i := 0; i < 10000; i++ {
			lines = append(lines, g.next()<<uint(g.next()%24))
		}
		for _, line := range lines {
			rowGlobal := line / channels / (c.RowBytes / 64)
			wantBank := int(line%channels)*int(bpc) + int(rowGlobal%bpc)
			wantRow := int64(rowGlobal / bpc)
			if bank, row := d.locate(line); bank != wantBank || row != wantRow {
				t.Fatalf("%+v: locate(%#x) = bank %d row %d, want bank %d row %d", c, line, bank, row, wantBank, wantRow)
			}
		}
	}
}

// replayStream is BenchmarkDRAMReplay's fixed input: 2^20 records from 8
// cores, four in five on per-core sequential sweeps and one in five a
// uniform line. Under FR-FCFS about three in four services hit the open
// row, close to a measured xeon/MediaWiki(rw)/8 DRAM cell.
var replayStream = sync.OnceValue(func() *missStream {
	const cores = 8
	g := lcg(11)
	s := &missStream{}
	next := make([]uint64, cores)
	for c := range next {
		next[c] = uint64(c) << 24
	}
	for i := 0; i < 1<<20; i++ {
		c := int(g.next() % cores)
		switch g.next() % 5 {
		case 0:
			s.add(g.next()%(1<<22), c, Writeback)
		default:
			if g.next()%256 == 0 {
				next[c] = uint64(c)<<24 | g.next()%(1<<20)
			}
			kind := Read
			if g.next()%3 == 0 {
				kind = Prefetch
			}
			s.add(next[c], c, kind)
			next[c]++
		}
	}
	return s
})

// BenchmarkDRAMReplay is the memsys rung of the per-layer ladder: one
// DRAM model built, fed a fixed ~1 M-record miss stream through Record and
// finalized by Stats, per policy. ns/record is the replay cost a DRAM cell
// pays per bus transaction.
func BenchmarkDRAMReplay(b *testing.B) {
	s := replayStream()
	for _, p := range PolicyNames() {
		b.Run(string(p), func(b *testing.B) {
			var hits float64
			for i := 0; i < b.N; i++ {
				d, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 8)
				if err != nil {
					b.Fatal(err)
				}
				hits = s.replay(d).RowHitRate()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.lines)), "ns/record")
			b.ReportMetric(hits, "row-hits")
		})
	}
}
