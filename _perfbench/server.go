package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one hpserve subprocess listening on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once the process exits
}

// startServer runs the hpserve binary with -canonical (bodies are pure
// functions of the request) plus args, and returns once /metrics answers.
// Its logs are discarded.
func startServer(bin string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-addr", addr, "-canonical"}, args...)
	cmd := exec.Command(bin, argv...)
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/metrics")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("hpserve %v exited before serving: %v", argv, err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hpserve %v did not answer /metrics within 30s", argv)
		}
	}
}

// hpserve's port is drawn from [serverPortLow, serverPortHigh), below
// Linux's default ephemeral range (32768–60999). In -mode=cluster hpserve
// opens its replicas' listeners on port 0 before the router binds -addr;
// with -addr itself taken from the ephemeral range, a replica can be
// handed that port: the router then fails to bind and hpserve exits, but
// the replica may already have answered /metrics. That fits the one run
// whose first request after set-up was reset.
const (
	serverPortLow  = 20000
	serverPortHigh = 32000
)

// freeAddr finds a free loopback port in the server range and releases
// it for the subprocess to bind.
func freeAddr() (string, error) {
	for range 100 {
		port := serverPortLow + rand.Intn(serverPortHigh-serverPortLow)
		ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
		if err != nil {
			continue
		}
		addr := ln.Addr().String()
		return addr, ln.Close()
	}
	return "", fmt.Errorf("no free loopback port in [%d, %d)", serverPortLow, serverPortHigh)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 15 s. It returns once the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// rssMB reads a process's resident set (VmRSS) in MiB.
func rssMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// rssSampler polls a process's resident set every 10 ms and keeps the
// peak of each window. The median window peak is steadier than the
// process's all-time peak (VmHWM), which hinges on where one garbage
// collection happened to fall.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

const rssPoll = 10 * time.Millisecond

// startRSSSampler starts sampling pid; window <= 0 keeps one window until
// the sampler stops.
func startRSSSampler(pid int, window time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		var peak float64
		windowEnd := time.Now().Add(window)
		for {
			select {
			case <-s.stop:
				if peak > 0 {
					s.peaks = append(s.peaks, peak)
				}
				return
			case now := <-tick.C:
				mb, err := rssMB(pid)
				if err != nil {
					s.err = err
					return
				}
				peak = max(peak, mb)
				if window > 0 && now.After(windowEnd) {
					s.peaks = append(s.peaks, peak)
					peak, windowEnd = 0, now.Add(window)
				}
			}
		}
	}()
	return s
}

// medianPeakMB stops the sampler and returns the median window peak.
func (s *rssSampler) medianPeakMB() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		return 0, errors.New("no resident-set sample")
	}
	return median(s.peaks), nil
}

// metrics is one /metrics scrape: plain series and histogram _sum/_count
// series by their full text (name plus labels). Bucket series are skipped.
type metrics map[string]float64

func scrape(ctx context.Context, client *http.Client, base string) (metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseMetrics(string(body))
}

// parseMetrics reads the Prometheus text format's sample lines.
func parseMetrics(text string) (metrics, error) {
	m := metrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest := line, ""
		if i := strings.IndexByte(line, '}'); i >= 0 {
			series, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			series, rest = line[:i], line[i:]
		}
		if strings.Contains(series, "_bucket") {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[series] += v
	}
	return m, nil
}

// delta is the change of every series whose text starts with prefix,
// summed (so a labelled family sums over its labels).
func delta(before, after metrics, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// phaseMeanUS is the mean duration, in µs, of one hp_latency_phase_us
// phase between two scrapes, and the number of spans it covers.
func phaseMeanUS(before, after metrics, phase string) (meanUS, count float64) {
	sel := `{phase="` + phase + `"}`
	sum := delta(before, after, "hp_latency_phase_us_sum"+sel)
	count = delta(before, after, "hp_latency_phase_us_count"+sel)
	if count == 0 {
		return 0, 0
	}
	return sum / count, count
}
