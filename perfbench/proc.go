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
	"syscall"
	"time"
)

// Node is one odad instance as the workloads see it. The workloads talk to
// it only over its wire and HTTP addresses, so the same workload code
// drives the odad binary and the traced in-process stack.
type Node struct {
	ID      string // cluster member ID ("" for a single node)
	Wire    string // wire-protocol ingest address
	HTTP    string // HTTP query address
	Cluster string // cluster listener address ("" for a single node)
	Peers   string // -peers value ("" for a single node)
	RF      int
	DataDir string

	cmd   *exec.Cmd
	log   *os.File
	stack *Stack // the in-process stack, when traced
}

// Flags is the exact odad command line the node runs with: durable, WAL
// fsync on the default interval cadence, quotas off so no query is
// refused; everything else at odad's defaults.
func (n *Node) Flags() []string {
	f := []string{"-listen", n.Wire, "-http", n.HTTP, "-data-dir", n.DataDir, "-fsync", "interval", "-query-rate", "0"}
	if n.Peers != "" {
		f = append(f, "-node-id", n.ID, "-peers", n.Peers, "-rf", strconv.Itoa(n.RF))
	}
	return f
}

// Launcher starts and kills nodes.
type Launcher interface {
	// Start launches n and returns once its HTTP endpoint answers /stats.
	Start(n *Node) error
	// Kill stops n abruptly (SIGKILL for a process) and waits for it.
	Kill(n *Node)
	// Usage reports n's peak resident set (MiB) and CPU time so far.
	Usage(n *Node) (rssMiB float64, cpu time.Duration)
}

// handedOut remembers every port freeAddr returned, so no two nodes of a
// run are ever given the same one.
var handedOut = map[string]bool{}

// freeAddr picks a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	for {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := ln.Addr().String()
		ln.Close()
		if !handedOut[addr] {
			handedOut[addr] = true
			return addr, nil
		}
	}
}

// nodeSeq numbers data directories so repeated set-ups never share one.
var nodeSeq int

// newNode allocates addresses and a fresh data directory under dir.
func newNode(dir, id string, cluster bool) (*Node, error) {
	nodeSeq++
	n := &Node{ID: id, DataDir: filepath.Join(dir, fmt.Sprintf("data-%s-%d", id, nodeSeq))}
	addrs := make([]string, 3)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	n.Wire, n.HTTP = addrs[0], addrs[1]
	if cluster {
		n.Cluster = addrs[2]
	}
	return n, os.MkdirAll(n.DataDir, 0o755)
}

// procLauncher runs the odad binary as a child process.
type procLauncher struct {
	bin string
	dir string
}

func (l *procLauncher) Start(n *Node) error {
	logf, err := os.OpenFile(filepath.Join(l.dir, "odad-"+n.ID+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(l.bin, n.Flags()...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start odad: %w", err)
	}
	n.cmd, n.log = cmd, logf
	if err := waitReady(n, 60*time.Second, func() bool { return cmd.ProcessState != nil }); err != nil {
		l.Kill(n)
		return fmt.Errorf("odad %s: %v (log: %s)", n.ID, err, tailFile(logf.Name()))
	}
	return nil
}

func (l *procLauncher) Kill(n *Node) {
	if n.cmd == nil {
		return
	}
	_ = n.cmd.Process.Kill()
	_ = n.cmd.Wait()
	n.cmd = nil
	n.log.Close()
}

func (l *procLauncher) Usage(n *Node) (float64, time.Duration) {
	if n.cmd == nil {
		return 0, 0
	}
	return procUsage(n.cmd.Process.Pid)
}

// procUsage reads a process's VmHWM (peak RSS) and utime+stime from /proc.
func procUsage(pid int) (float64, time.Duration) {
	var rss float64
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64)
				rss = kb / 1024
			}
		}
	}
	var cpu time.Duration
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, in clock ticks (USER_HZ = 100).
		s := string(b)
		if i := strings.LastIndexByte(s, ')'); i >= 0 {
			f := strings.Fields(s[i+1:])
			if len(f) > 13 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				cpu = time.Duration(ut+st) * 10 * time.Millisecond
			}
		}
	}
	return rss, cpu
}

// selfCPU is the harness process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitReady polls /stats until it answers 200, the deadline passes, or
// exited reports that the process is gone.
func waitReady(n *Node, limit time.Duration, exited func() bool) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + n.HTTP + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if exited() {
			return fmt.Errorf("exited before serving")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not ready within %v", limit)
}

// tailFile returns the last lines of a log file for error messages.
func tailFile(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// Stats is a parsed /stats document.
type Stats map[string]any

// fetchStats reads a node's /stats.
func fetchStats(c *http.Client, n *Node) (Stats, error) {
	resp, err := c.Get("http://" + n.HTTP + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: %s", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

// Num reads a numeric field by dotted path ("persist.wal_bytes"); missing
// fields read 0.
func (s Stats) Num(path string) float64 {
	var cur any = map[string]any(s)
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	v, _ := cur.(float64)
	return v
}

// Section returns a nested object ("cluster"), or nil.
func (s Stats) Section(k string) map[string]any {
	m, _ := s[k].(map[string]any)
	return m
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
