package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/extrap of the checkout at root into out.
func buildServer(root, out string) (string, error) {
	bin := filepath.Join(out, "extrap")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/extrap")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/extrap: %v\n%s", err, msg)
	}
	return bin, nil
}

// server is an `extrap serve` child process listening on loopback.
type server struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	exited chan struct{}
}

// startServer spawns `extrap serve` on a free loopback port with a fresh
// store under dir, plus any extra flags, and returns once it listens.
// Its stdout and stderr go to files in dir, never to a pipe nobody reads.
func startServer(bin, dir string, extra ...string) (*server, error) {
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-store-dir", store}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// The server must not outlive the harness, even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting extrap serve: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.base == "" {
		if out, err := os.ReadFile(stdout.Name()); err == nil {
			if _, rest, ok := strings.Cut(string(out), "listening on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					s.base = addr
					break
				}
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("extrap serve exited during start-up: %s", s.stderrTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("extrap serve did not report its address within 30s")
		}
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and exit, kills it if it has not exited
// within 15s, and waits until it has.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) stderrTail() string {
	b, _ := os.ReadFile(filepath.Join(s.dir, "stderr"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// get fetches path and returns an error unless it answers 200.
func (s *server) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// serverVars is the part of GET /debug/vars the benchmark reads.
type serverVars struct {
	Serve struct {
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		Rejected    int64 `json:"rejected"`
		Sim         struct {
			Attempts          int64 `json:"ff_attempts"`
			FastForwards      int64 `json:"fast_forwards"`
			IterationsSkipped int64 `json:"iterations_skipped"`
			Fallbacks         int64 `json:"fallbacks"`
		} `json:"sim"`
		Fitted struct {
			Runs             int64 `json:"runs"`
			FitIterations    int64 `json:"fit_iterations"`
			AnchorsSimulated int64 `json:"anchors_simulated"`
			CellsFitted      int64 `json:"cells_fitted"`
		} `json:"fitted"`
	} `json:"extrap_serve"`
	Memstats struct {
		TotalAlloc uint64 `json:"TotalAlloc"`
		NumGC      uint32 `json:"NumGC"`
	} `json:"memstats"`
}

// snapshot is what is read from the server and the host around a phase.
type snapshot struct {
	vars  serverVars
	cpuMs float64 // server user + system time
	steal hostCPU
}

func (s *server) snapshot(c *http.Client) (snapshot, error) {
	var sn snapshot
	body, err := s.get(c, "/debug/vars")
	if err != nil {
		return sn, err
	}
	if err := json.Unmarshal(body, &sn.vars); err != nil {
		return sn, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	if sn.cpuMs, err = processCPUMs(s.pid()); err != nil {
		return sn, err
	}
	if sn.steal, err = readHostCPU(); err != nil {
		return sn, err
	}
	return sn, nil
}

// clockTicksPerSecond is USER_HZ, the unit of /proc CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// processCPUMs reads a process's user plus system CPU time.
func processCPUMs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return float64(utime+stime) * 1000 / clockTicksPerSecond, nil
}

// rssMB reads a process's resident set size.
func rssMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// sampleRSS reads a process's resident set every interval until stop is
// closed, and returns the readings.
func sampleRSS(pid int, interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		// A failed reading means the server died, which the requests
		// report; the sample is just missing.
		if mb, err := rssMB(pid); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// hostCPU is the host's cumulative CPU time, total and stolen by the
// hypervisor, in ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time stolen between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
