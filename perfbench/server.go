package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// running holds every daemon started and not yet stopped, so that an
// abort can stop them all.
var running struct {
	mu  sync.Mutex
	set map[*server]bool
}

// stopAll stops every running daemon.
func stopAll() {
	running.mu.Lock()
	all := make([]*server, 0, len(running.set))
	for s := range running.set {
		all = append(all, s)
	}
	running.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// server is one yapserve process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	log     bytes.Buffer
	exited  chan struct{}
}

// startServer execs the daemon on a free loopback port with production
// flags plus extra, and returns once /healthz answers.
func startServer(bin string, extra ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reserve port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	running.mu.Lock()
	if running.set == nil {
		running.set = make(map[*server]bool)
	}
	running.set[s] = true
	running.mu.Unlock()
	go func() {
		s.cmd.Wait() //nolint:errcheck // exit status is reported through the log on failure
		running.mu.Lock()
		delete(running.set, s)
		running.mu.Unlock()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("yapserve exited during start-up: %s", s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("yapserve not healthy after 15s")
		}
	}
}

// stop terminates the daemon and waits for it to exit: SIGTERM first
// (the daemon drains), SIGKILL after 10s.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-s.exited
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads /metrics into series → value, summing over label sets
// (the benchmark's counters of interest are totals).
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// counterDelta is after − before for one /metrics series.
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// hostTicks reads the machine-wide CPU time split from /proc/stat: total
// ticks of every kind, and the ticks stolen by the hypervisor.
func hostTicks() (tickSample, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return tickSample{}, err
	}
	s := tickSample{at: time.Now()}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return tickSample{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return tickSample{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s, nil
}

// sampleHost reads hostTicks every interval until stop closes, then
// returns the samples (one taken after stop, so they cover the window).
func sampleHost(stop <-chan struct{}, interval time.Duration) ([]tickSample, error) {
	var out []tickSample
	for {
		s, err := hostTicks()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		select {
		case <-stop:
			if s, err = hostTicks(); err != nil {
				return nil, err
			}
			return append(out, s), nil
		case <-time.After(interval):
		}
	}
}
