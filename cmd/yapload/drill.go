package main

// Shared drill machinery. Every daemon a drill talks to is a child
// process re-exec'd as `yapload serve <yapserve flags>` — the shipped
// yapserve wiring in internal/daemon, under -race when yapload was built
// with it — and is spawned, scraped and killed through the helpers here.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"yap/internal/client"
	"yap/internal/faultinject"
	"yap/internal/service"
	"yap/internal/sim"
)

// drill collects invariant violations and owns the children and temporary
// directories a run started, so that every exit path cleans them up.
type drill struct {
	logger *log.Logger

	mu         sync.Mutex
	violations []string
	children   []*child
	dirs       []string
}

func (d *drill) violation(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	d.mu.Lock()
	d.violations = append(d.violations, msg)
	d.mu.Unlock()
	d.logger.Print("VIOLATION: ", msg)
}

// exit kills every child still running, removes the temporary directories,
// prints the violations and maps them onto the process exit code; with
// none it prints held.
func (d *drill) exit(held string) int {
	d.cleanup()
	d.mu.Lock()
	violations := d.violations
	d.mu.Unlock()
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "yapload: VIOLATION:", v)
		}
		return 1
	}
	fmt.Println("yapload:", held)
	return 0
}

// fatalf aborts a drill whose setup failed, cleaning up as exit does.
func (d *drill) fatalf(format string, args ...any) {
	d.logger.Printf(format, args...)
	d.cleanup()
	os.Exit(1)
}

func (d *drill) cleanup() {
	d.mu.Lock()
	children, dirs := d.children, d.dirs
	d.children, d.dirs = nil, nil
	d.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup of drill-owned directories
	}
}

// tempDir makes a temporary directory that is removed when the drill ends.
func (d *drill) tempDir() string {
	dir, err := os.MkdirTemp("", "yapload-*")
	if err != nil {
		d.fatalf("temp dir: %v", err)
	}
	d.mu.Lock()
	d.dirs = append(d.dirs, dir)
	d.mu.Unlock()
	return dir
}

// child is one `yapload serve` daemon.
type child struct {
	cmd    *exec.Cmd
	url    string
	log    bytes.Buffer // the child's output; read it only after exited closes
	exited chan struct{}
}

// spawn starts a daemon listening on addr (a free loopback port when
// empty) with the given yapserve flags and extra environment entries,
// which override inherited ones, and returns once /healthz answers. The
// child's output streams to stderr and is kept in its log.
func (d *drill) spawn(addr string, env []string, args ...string) *child {
	if addr == "" {
		addr = d.reserveAddrs(1)[0]
	}
	exe, err := os.Executable()
	if err != nil {
		d.fatalf("locating own binary: %v", err)
	}
	c := &child{url: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(exe, append([]string{"serve", "-addr", addr}, args...)...)
	c.cmd.Env = append(os.Environ(), env...)
	out := io.MultiWriter(os.Stderr, &c.log)
	c.cmd.Stdout, c.cmd.Stderr = out, out
	if err := c.cmd.Start(); err != nil {
		d.fatalf("starting daemon: %v", err)
	}
	go func() {
		c.cmd.Wait() //nolint:errcheck // killed children exit non-zero by design
		close(c.exited)
	}()
	d.mu.Lock()
	d.children = append(d.children, c)
	d.mu.Unlock()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := probe.Get(c.url + "/healthz"); err == nil {
			resp.Body.Close() //nolint:errcheck
			if resp.StatusCode == http.StatusOK {
				d.logger.Printf("daemon pid %d up at %s (%s)", c.cmd.Process.Pid, c.url, strings.Join(args, " "))
				return c
			}
		}
		select {
		case <-c.exited:
			d.fatalf("daemon at %s exited during start-up", c.url)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.fatalf("daemon at %s not healthy after 15s", c.url)
		}
	}
}

// kill SIGKILLs the child — a crash, not a shutdown — and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-c.exited
}

// stop SIGTERMs the child, so it drains and logs its shutdown lines, and
// SIGKILLs it if that takes over 10s.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// reserveAddrs grabs n kernel-assigned loopback ports and releases them
// again, so daemons that must know each other's URLs before any of them
// listens can be given their addresses up front. The release-to-rebind
// window is fine for a drill on loopback.
func (d *drill) reserveAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.fatalf("reserving a port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close() //nolint:errcheck
	}
	return addrs
}

// scrape reads base's /metrics into series name → value, summing over
// label sets.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("building /metrics request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}

// metric returns one series from base's /metrics, recording a violation
// (and returning 0) when the scrape fails or lacks the series.
func (d *drill) metric(ctx context.Context, base, name string) float64 {
	m, err := scrape(ctx, base)
	if err != nil {
		d.violation("%s: %v", base, err)
		return 0
	}
	v, ok := m[name]
	if !ok {
		d.violation("%s/metrics lacks series %s", base, name)
	}
	return v
}

// faultsEnv arms plan in a child's environment.
func faultsEnv(plan string) []string {
	return []string{faultinject.EnvVar + "=" + plan}
}

// others returns urls without its i-th entry: a member's peer list.
func others(urls []string, i int) string {
	peers := make([]string, 0, len(urls)-1)
	peers = append(peers, urls[:i]...)
	return strings.Join(append(peers, urls[i+1:]...), ",")
}

// sameResult reports whether a simulate result carries exactly the stop
// state, tallies, yields and interval of the single-node run want.
func sameResult(got *service.SimulateResponse, want sim.Result) bool {
	return !got.Partial && got.StoppedEarly == want.StoppedEarly &&
		got.Dies == want.Counts.Dies && got.Survived == want.Counts.Survived &&
		got.OverlayYield == want.OverlayYield && got.DefectYield == want.DefectYield &&
		got.RecessYield == want.RecessYield && got.Yield == want.Yield &&
		got.YieldLo == want.YieldLo && got.YieldHi == want.YieldHi
}

// awaitCheckpoint polls job id until it is running with at least one
// durable checkpoint behind it — the moment a SIGKILL interrupts real
// work — and returns that snapshot. When the job ends first it records a
// violation and returns nil.
func (d *drill) awaitCheckpoint(ctx context.Context, cli *client.Client, id string) *service.JobResponse {
	for {
		job, err := cli.GetJob(ctx, id)
		if err != nil {
			d.fatalf("polling %s before the kill: %v", id, err)
		}
		switch {
		case job.State == "running" && job.Completed >= jobsCheckpointEvery:
			if job.Completed >= job.Samples {
				d.violation("kill lands after all %d samples completed; the job needs more pacing", job.Samples)
			}
			return job
		case job.State == "pending" || job.State == "running":
			time.Sleep(5 * time.Millisecond)
		default:
			d.violation("job reached %q before the kill could land; the drill exercised nothing", job.State)
			return nil
		}
	}
}
