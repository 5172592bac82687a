package main

import (
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
)

// server is one cmd/serve process on a loopback port, with a keep-alive
// client limited to conns connections.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    string
	// done is closed once the process has exited and waitErr is set.
	done    chan struct{}
	waitErr error
	// Filled in by stop: CPU time (user+system) and peak resident set of
	// the whole process lifetime.
	cpu     time.Duration
	maxRSSk int64
}

// startServer launches the serve binary over storeDir (empty: no store)
// and returns once it answers GET /v1/stats.
func startServer(bin, storeDir, logPath string, conns int) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		log:  logPath,
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
	}
	s.done = make(chan struct{})
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, _, err := s.get("/v1/stats"); err == nil && st == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited during start-up (%v); log tail:\n%s", s.waitErr, s.logTail())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready after 60s; log tail:\n%s", s.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// freePort reserves a loopback port and releases it for the server.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a loopback port: %w", err)
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// post sends a JSON body and returns the status and the whole response
// body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *server) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// postJSON posts v and decodes a 200 answer into out.
func (s *server) postJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.postBody(path, body, out)
}

// postBody posts an encoded body and decodes a 200 answer into out.
func (s *server) postBody(path string, body []byte, out any) error {
	st, data, err := s.post(path, body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if st != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, st, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// serveStats is the part of GET /v1/stats the benchmark checks.
type serveStats struct {
	Graphs       int    `json:"graphs"`
	PackRequests uint64 `json:"pack_requests"`
	PackComputes uint64 `json:"pack_computes"`
	StoreHits    uint64 `json:"store_hits"`
	StoreErrors  uint64 `json:"store_errors"`
}

func (s *server) stats() (serveStats, error) {
	var st serveStats
	code, data, err := s.get("/v1/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	return st, json.Unmarshal(data, &st)
}

// procCPU reads the process's CPU time so far from /proc.
func (s *server) procCPU() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	line := string(data)
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(line[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// stop asks the server to drain and exit (SIGTERM, which also flushes
// write-behind snapshot saves), kills it if it does not, and waits for
// it. It records the process's CPU time and peak RSS.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("server ignored SIGTERM for 30s")
	}
	err := s.waitErr
	if ps := s.cmd.ProcessState; ps != nil {
		s.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.maxRSSk = ru.Maxrss
		}
	}
	return err
}

func (s *server) logTail() string {
	data, _ := os.ReadFile(s.log)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}
