package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveArgs starts the service the way serve-mix measures it: two workers,
// cells at scale 256 with one warmup and one measured transaction.
var serveArgs = []string{"serve", "-addr", "127.0.0.1:0", "-jobs", "2",
	"-scale", "256", "-warmup", "1", "-measure", "1"}

// server is one running `webmm serve` process.
type server struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration // exec to the first 200 from /healthz
	done  chan struct{} // closed when the process has exited
	err   error         // the process's exit error, valid after done
}

// addrWatcher is the server's stderr: it passes the listen address to
// addr once the "listening on" line appears.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const tag = "listening on http://"
		s := w.buf.String()
		if i := strings.Index(s, tag); i >= 0 {
			rest := s[i+len(tag):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.addr <- rest[:j]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

// startServer starts webmm serve and waits for its first 200 from /healthz.
func (b *bench) startServer() (*server, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := b.webmmCmd(serveArgs...)
	cmd.Stderr = w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	var addr string
	select {
	case addr = <-w.addr:
	case <-s.done:
		return nil, fmt.Errorf("webmm serve exited before listening: %v", s.err)
	case <-b.ctx.Done():
		_, _ = s.stop()
		return nil, b.ctx.Err()
	}
	s.url = "http://" + addr
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, s.url+"/healthz", nil)
		if err != nil {
			_, _ = s.stop()
			return nil, err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		if b.ctx.Err() != nil {
			_, _ = s.stop()
			return nil, b.ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain to finish, and returns the
// process's peak RSS in MiB.
func (s *server) stop() (float64, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	<-s.done
	return peakRSS(s.cmd), s.err
}

// serveStartup is one serve start-up: exec to the first healthy response,
// then a drain.
func serveStartup(b *bench) (time.Duration, error) {
	s, err := b.startServer()
	if err != nil {
		return 0, err
	}
	_, err = s.stop()
	return s.ready, err
}

// cellReq is one POST /run body: a single PHP cell under its own seed.
type cellReq struct {
	Platform string `json:"platform"`
	Alloc    string `json:"alloc"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Seed     uint64 `json:"seed"`
}

func (c cellReq) key() string {
	return fmt.Sprintf("%s/%s/%s/%d/seed%d", c.Platform, c.Alloc, c.Workload, c.Cores, c.Seed)
}

var (
	servePlatforms = []string{"xeon", "niagara"}
	serveCores     = []int{1, 2, 4, 8}
	serveWorkloads = []string{"MediaWiki(ro)", "MediaWiki(rw)", "SugarCRM", "eZPublish",
		"phpBB", "CakePHP", "SPECweb2005"}
	serveAllocs = []string{"default", "region", "ddmalloc"}
)

// cellsPerStratum is the size of one stratum: platforms × cores × workloads.
var cellsPerStratum = len(servePlatforms) * len(serveCores) * len(serveWorkloads)

// mix draws serve-mix's requests from the workload seed.
type mix struct {
	rng  *rand.Rand
	next uint64 // the next fresh cell seed
}

func newMix(seed uint64) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, 0x5EED)), next: simSeed(seed)}
}

// stratum returns one fresh cell for every platform × cores × workload
// combination, with a drawn allocator and a seed no earlier request used,
// in a drawn order. Every block of misses thus holds the same mix of cell
// sizes, which keeps latency percentiles comparable between seeds.
func (m *mix) stratum() []cellReq {
	var out []cellReq
	for _, p := range servePlatforms {
		for _, c := range serveCores {
			for _, w := range serveWorkloads {
				m.next++
				out = append(out, cellReq{Platform: p, Cores: c, Workload: w,
					Alloc: serveAllocs[m.rng.IntN(len(serveAllocs))], Seed: m.next})
			}
		}
	}
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// served is one completed request with its client-side event times.
type served struct {
	req                cellReq
	hit                bool
	latency            time.Duration // send to result
	admit, queue, exec time.Duration // send→queued, queued→running, running→result
	result             []byte
	rejected           bool
	err                error
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

// do sends one request and reads its NDJSON stream to the result event.
func (c *client) do(ctx context.Context, r cellReq, hit bool) served {
	out := served{req: r, hit: hit}
	body, _ := json.Marshal(r) // a struct of strings and ints always marshals
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/run", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		out.rejected = true
		out.err = fmt.Errorf("refused: %s", resp.Status)
		return out
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		out.err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		return out
	}
	var queued, running time.Time
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		at := time.Now()
		if len(line) > 0 {
			var ev struct {
				Event  string          `json:"event"`
				Failed bool            `json:"failed"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				out.err = fmt.Errorf("bad event %q: %v", line, jerr)
				return out
			}
			switch ev.Event {
			case "queued":
				queued = at
			case "running":
				running = at
			case "result":
				if ev.Failed {
					out.err = fmt.Errorf("cell failed: %s", ev.Error)
				} else if queued.IsZero() || running.IsZero() {
					out.err = errors.New("result before queued and running events")
				} else {
					out.latency = at.Sub(sent)
					out.admit, out.queue, out.exec = queued.Sub(sent), running.Sub(queued), at.Sub(running)
					out.result = ev.Result
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				return out
			}
		}
		if err != nil {
			out.err = fmt.Errorf("stream ended without a result: %v", err)
			return out
		}
	}
}

// job is one request of a block.
type job struct {
	req cellReq
	hit bool
}

// runBlock sends every job through the two clients, each waiting for its
// reply before sending the next, and returns the completions and the
// block's wall time.
func runBlock(ctx context.Context, clients []*client, jobs []job) ([]served, time.Duration) {
	work := make(chan job)
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for j := range work {
				s := c.do(ctx, j.req, j.hit)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	for _, j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
	return out, time.Since(start)
}

// serveRun is what serve-mix's sessions measured.
type serveRun struct {
	done      []served  // timed requests
	blockWall []float64 // seconds per block
	rssMiB    []float64 // peak RSS per session
	sessions  []float64 // seconds per session
}

// serveBlocks is how many blocks one serve-mix session runs.
const serveBlocks = 5

// session starts one server, warms it with one stratum of cells (untimed),
// then runs blocks of fresh cells (misses) interleaved with repeats of the
// warm cells (hits), checks every reply, and drains the server.
func (run *serveRun) session(b *bench, m *mix, blocks int) error {
	start := time.Now()
	s, err := b.startServer()
	if err != nil {
		return err
	}
	defer func() {
		if s != nil {
			_, _ = s.stop()
		}
	}()
	clients := []*client{newClient(s.url), newClient(s.url)}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()

	warmCells := m.stratum()
	var warmJobs []job
	for _, c := range warmCells {
		warmJobs = append(warmJobs, job{req: c})
	}
	warmDone, _ := runBlock(b.ctx, clients, warmJobs)
	warmResult := map[string][]byte{}
	for _, d := range warmDone {
		b.op("serve warm "+d.req.key(), d.err)
		if d.err == nil {
			warmResult[d.req.key()] = d.result
			b.output("serve "+d.req.key(), d.result)
		}
	}

	misses := 0
	for i := 0; i < blocks; i++ {
		var jobs []job
		for _, c := range m.stratum() {
			jobs = append(jobs, job{req: c})
		}
		for range warmCells {
			jobs = append(jobs, job{req: warmCells[m.rng.IntN(len(warmCells))], hit: true})
		}
		m.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		done, wall := runBlock(b.ctx, clients, jobs)
		for _, d := range done {
			err := d.err
			if err == nil && d.hit && !bytes.Equal(d.result, warmResult[d.req.key()]) {
				err = errors.New("hit returned a different result than the cell's miss")
			}
			b.op("serve request "+d.req.key(), err)
			if err != nil {
				continue
			}
			b.output("serve "+d.req.key(), d.result)
			if !d.hit {
				misses++
			}
		}
		run.done = append(run.done, done...)
		run.blockWall = append(run.blockWall, wall.Seconds())
	}
	// Hits must come from the memo: the server simulates only the warm
	// cells and the misses.
	cells, err := scrapeCounter(b.ctx, s.url+"/metrics", "webmm_cells_total")
	if want := float64(len(warmDone) + misses); err == nil && cells != want {
		err = fmt.Errorf("server simulated %.0f cells, want %.0f (warm + misses)", cells, want)
	}
	b.op("serve hits served from the memo", err)
	rss, err := s.stop()
	s = nil
	b.op("serve drain", err)
	run.rssMiB = append(run.rssMiB, rss)
	run.sessions = append(run.sessions, time.Since(start).Seconds())
	return nil
}

// scrapeCounter reads one unlabelled counter from a Prometheus text page.
func scrapeCounter(ctx context.Context, url, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			if _, err := fmt.Sscan(f[1], &v); err != nil {
				return 0, err
			}
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found", name)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies splits the successful timed requests into hit and miss
// latencies in milliseconds.
func (run *serveRun) latencies() (hits, misses []float64) {
	for _, d := range run.done {
		if d.err != nil {
			continue
		}
		if d.hit {
			hits = append(hits, ms(d.latency))
		} else {
			misses = append(misses, ms(d.latency))
		}
	}
	return hits, misses
}

// serveMix is the serve workload: sessions of serveBlocks blocks, each on a
// fresh server, until the run's seconds are spent. wall_s is the median
// block and req_per_s its requests over it, sim_p50_ms the median miss,
// peak_rss_mib the median session peak.
func serveMix(b *bench) error {
	run := &serveRun{}
	m := newMix(b.opt.seed)
	for start := time.Now(); b.more(start, run.sessions, 2); {
		err := run.session(b, m, serveBlocks)
		b.op("serve session", err)
		if err != nil {
			return err
		}
	}
	hits, misses := run.latencies()
	if len(misses) == 0 || len(hits) == 0 {
		return errNoSamples
	}
	b.add("wall_s", "s", median(run.blockWall), len(run.blockWall))
	b.add("req_per_s", "1/s", float64(2*cellsPerStratum)/median(run.blockWall), len(run.blockWall))
	b.add("sim_p50_ms", "ms", median(misses), len(misses))
	b.add("peak_rss_mib", "MiB", median(run.rssMiB), len(run.rssMiB))
	b.note("serve-mix: %d sessions of %d warm cells, then %d blocks of %d misses + %d hits; 2 closed-loop clients",
		len(run.sessions), cellsPerStratum, serveBlocks, cellsPerStratum, cellsPerStratum)
	for _, lat := range []struct {
		name string
		xs   []float64
	}{{"miss", misses}, {"hit", hits}} {
		line := fmt.Sprintf("serve-mix %s latency: n=%d p50 %.3f ms", lat.name, len(lat.xs), median(lat.xs))
		if p, ok := percentile(lat.xs, 0.9); ok {
			line += fmt.Sprintf(", p90 %.3f ms", p)
		}
		b.note("%s", line)
	}
	return nil
}
