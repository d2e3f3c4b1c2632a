package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
)

// buildTyrd compiles cmd/tyrd from the module source into dir.
func buildTyrd(dir string) (string, error) {
	bin := filepath.Join(dir, "tyrd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/tyrd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building tyrd: %w", err)
	}
	return bin, nil
}

// tyrd is one running tyrd process, started with only -addr so every
// other setting is its default (-workers = GOMAXPROCS, no disk cache, no
// batching, no peers).
type tyrd struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
}

func tyrdFlags(addr string) []string { return []string{"-addr", addr} }

func startTyrd(bin string) (*tyrd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, tyrdFlags(addr)...)
	// Request logs go to stderr; discarding them keeps the benchmark's
	// output to its result lines. The process dies with the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tyrd: %w", err)
	}
	t := &tyrd{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark ends it
		close(t.done)
	}()
	return t, nil
}

// stop drains tyrd with SIGTERM, kills it if the drain hangs, and returns
// once the process has exited.
func (t *tyrd) stop() {
	_ = t.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-t.done:
	case <-time.After(20 * time.Second):
		_ = t.cmd.Process.Kill()
		<-t.done
	}
}

func (t *tyrd) exited() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// client speaks tyr-api/v1 to one tyrd over keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one /v1/run body and reads the whole reply. The latency runs
// from sending the request until the last byte of the body was read.
func (c *client) post(body []byte) (time.Duration, []byte, int, error) {
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	return lat, reply, resp.StatusCode, nil
}

// do runs op o and checks the reply: a 200 whose outputs tyrd validated.
func (c *client) do(o op, idx int) sample {
	s := sample{idx: idx, key: o.key}
	lat, reply, code, err := c.post(o.body)
	if err != nil {
		s.err = err
		return s
	}
	if code != http.StatusOK {
		s.err = fmt.Errorf("%s: HTTP %d: %.200s", o.key, code, strings.Join(strings.Fields(string(reply)), " "))
		return s
	}
	var res api.RunResult
	if err := json.Unmarshal(reply, &res); err != nil {
		s.err = fmt.Errorf("%s: decoding reply: %w", o.key, err)
		return s
	}
	if !res.Checked || !res.Stats.Completed {
		s.err = fmt.Errorf("%s: run not completed and checked", o.key)
		return s
	}
	s.lat, s.cycles, s.fired = lat, res.Stats.Cycles, res.Stats.Fired
	return s
}

// scrape reads /v1/metrics into a map from sample name (with labels) to
// value.
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics: HTTP %d", resp.StatusCode)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/v1/metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// waitReady polls /v1/healthz until tyrd answers.
func waitReady(t *tyrd, c *client) error {
	start := time.Now()
	for {
		resp, err := c.hc.Get(c.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if t.exited() || time.Since(start) > 30*time.Second {
			return fmt.Errorf("tyrd never became ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// coldStart spawns tyrd and sends o until tyrd answers, returning the time
// from spawning to that first reply and the reply's outcome.
func coldStart(bin string, o op) (time.Duration, sample, error) {
	start := time.Now()
	t, err := startTyrd(bin)
	if err != nil {
		return 0, sample{}, err
	}
	defer t.stop()
	c := newClient(t.addr, 1)
	defer c.close()
	for {
		s := c.do(o, 0)
		var refused *net.OpError
		if s.err == nil || !errors.As(s.err, &refused) {
			return time.Since(start), s, nil
		}
		if t.exited() || time.Since(start) > 30*time.Second {
			return 0, s, fmt.Errorf("cold start: tyrd never answered: %w", s.err)
		}
		time.Sleep(time.Millisecond)
	}
}
