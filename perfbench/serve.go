package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"iselgen/internal/cluster"
	"iselgen/internal/service"
)

// daemon is one iseld child process.
type daemon struct {
	url   string
	flags []string
	cmd   *exec.Cmd
	log   *os.File
	done  chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemonFlags returns each replica's exact command-line flags: default
// flags apart from the listen address, the full pattern library, and
// for more than one replica fill-mode clustering over every replica.
//
// Which replica owns a library follows from the consistent-hash ring
// over the replica URLs, so with free ports chosen at random it would
// change from fleet to fleet, and with it which replica synthesizes
// what (set-up time, peak RSS). Given the libraries' fingerprints, one
// per selector, the ports are redrawn until library i is owned by
// replica i mod n, the same layout on every run.
func daemonFlags(n int, fps []string) ([][]string, []string, error) {
	urls := make([]string, n)
	ports := make([]int, n)
	for attempt := 0; ; attempt++ {
		for i := range urls {
			p, err := freePort()
			if err != nil {
				return nil, nil, err
			}
			ports[i] = p
			urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
		}
		if n < 2 || len(fps) == 0 || canonicalOwners(urls, fps) {
			break
		}
		if attempt == 1000 {
			return nil, nil, fmt.Errorf("no port layout puts library i on replica i")
		}
	}
	flags := make([][]string, n)
	for i := range flags {
		f := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-patterns", "0"}
		if n > 1 {
			f = append(f, "-peers", strings.Join(urls, ","), "-self", urls[i], "-cluster-mode", "fill")
		}
		flags[i] = f
	}
	return flags, urls, nil
}

func canonicalOwners(urls, fps []string) bool {
	ring := cluster.NewRing(urls, 0)
	for i, fp := range fps {
		if ring.Owner(fp) != urls[i%len(urls)] {
			return false
		}
	}
	return true
}

// startFleet spawns n replicas and waits until each answers /healthz.
func startFleet(bin, logDir string, n int, fps []string) ([]*daemon, error) {
	flags, urls, err := daemonFlags(n, fps)
	if err != nil {
		return nil, err
	}
	var ds []*daemon
	for i := range flags {
		lf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("iseld-%d.log", i)))
		if err != nil {
			stopFleet(ds)
			return nil, err
		}
		cmd := exec.Command(bin, flags[i]...)
		cmd.Stdout = lf
		cmd.Stderr = lf
		// The replicas die with the benchmark even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			lf.Close()
			stopFleet(ds)
			return nil, fmt.Errorf("start iseld: %w", err)
		}
		d := &daemon{url: urls[i], flags: flags[i], cmd: cmd, log: lf, done: make(chan struct{})}
		go func() { cmd.Wait(); close(d.done) }()
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.waitHealthy(30 * time.Second); err != nil {
			stopFleet(ds)
			return nil, err
		}
	}
	return ds, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("iseld %s exited during start-up (see %s)", d.url, d.log.Name())
		default:
		}
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("iseld %s not healthy after %v", d.url, limit)
}

// peakRSSMB reads the replica's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// vmHWM parses VmHWM from a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// stopFleet terminates every replica and waits for each to exit.
func stopFleet(ds []*daemon) {
	for _, d := range ds {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	}
}

// newClient gives one load client its own single connection, so the
// load runs over at most one connection per client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   120 * time.Second,
	}
}

// postBatch sends one /v1/select/batch request. A non-200 answer is an
// error; the caller counts every program in the batch as failed.
func postBatch(c *http.Client, url, target, selector string, progs []*program, vecSeed uint64) (*service.BatchSelectResponse, error) {
	req := service.BatchSelectRequest{Target: target, Selector: selector, VectorSeed: vecSeed, Vectors: vectorsPerProgram}
	for _, p := range progs {
		req.Programs = append(req.Programs, p.text)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(url+"/v1/select/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out service.BatchSelectResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if len(out.Results) != len(progs) {
		return nil, fmt.Errorf("batch: %d results for %d programs", len(out.Results), len(progs))
	}
	return &out, nil
}

// scrape reads a replica's /v1/metrics.
func scrape(url string) (*service.MetricsSnapshot, error) {
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/metrics: HTTP %d", url, resp.StatusCode)
	}
	var m service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("%s/v1/metrics: %w", url, err)
	}
	return &m, nil
}

func scrapeAll(ds []*daemon) ([]*service.MetricsSnapshot, error) {
	out := make([]*service.MetricsSnapshot, len(ds))
	for i, d := range ds {
		m, err := scrape(d.url)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// acquisitionDelta reports the synthesis runs and peer fills the fleet
// made between two scrapes.
func acquisitionDelta(before, after []*service.MetricsSnapshot) (synth, fills uint64) {
	for i := range before {
		synth += after[i].SynthRuns - before[i].SynthRuns
		fills += after[i].PeerFills - before[i].PeerFills
	}
	return synth, fills
}

// fleetSetup is one timed fleet bring-up.
type fleetSetup struct {
	daemons []*daemon
	dur     time.Duration
	// peerFill is, per selector whose library one replica synthesized
	// and the other filled from it, how much later the filling replica
	// answered its first batch than the owner did.
	peerFill  []time.Duration
	peerFills uint64
	results   []*service.BatchSelectResponse
	fps       []string // library fingerprint per selector
}

// setUp spawns the replicas and times until every (replica, selector)
// has answered a batch. Each selector's first batch goes to every
// replica at once, so the owner synthesizes and the others fill from
// it the same way whichever replica the ring makes the owner.
func setUp(bin, logDir, target string, replicas int, selectors []string, first []*program, vecSeed uint64, fps []string) (*fleetSetup, error) {
	t0 := time.Now()
	ds, err := startFleet(bin, logDir, replicas, fps)
	if err != nil {
		return nil, err
	}
	fs := &fleetSetup{daemons: ds}
	before, err := scrapeAll(ds)
	if err != nil {
		stopFleet(ds)
		return nil, err
	}
	for _, sel := range selectors {
		done := make([]time.Duration, len(ds))
		resps := make([]*service.BatchSelectResponse, len(ds))
		errs := make([]error, len(ds))
		start := time.Now()
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(1)
			go func(i int, d *daemon) {
				defer wg.Done()
				c := newClient()
				defer c.CloseIdleConnections()
				resps[i], errs[i] = postBatch(c, d.url, target, sel, first, vecSeed)
				done[i] = time.Since(start)
			}(i, d)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				stopFleet(ds)
				return nil, fmt.Errorf("set-up batch (%s): %w", sel, err)
			}
		}
		fs.results = append(fs.results, resps...)
		fs.fps = append(fs.fps, resps[0].Fingerprint)
		after, err := scrapeAll(ds)
		if err != nil {
			stopFleet(ds)
			return nil, err
		}
		owner := -1
		for i := range ds {
			if after[i].SynthRuns > before[i].SynthRuns {
				owner = i
			}
		}
		if owner >= 0 && len(ds) > 1 {
			for i := range ds {
				if i != owner && after[i].PeerFills > before[i].PeerFills {
					fs.peerFill = append(fs.peerFill, done[i]-done[owner])
				}
			}
		}
		_, fills := acquisitionDelta(before, after)
		fs.peerFills += fills
		before = after
	}
	fs.dur = time.Since(t0)
	return fs, nil
}
