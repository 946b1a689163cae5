package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one `kairos serve` subprocess listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port
	logPath string
	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

// startDaemon launches bin as `kairos serve` on a free loopback port with
// the extra flags, and returns once it answers /healthz. The daemon logs
// to logPath.
func startDaemon(bin, logPath string, c *client, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"serve", "-addr", addr, "-q"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark dies, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	if err := d.waitHealthy(c, 60*time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (d *daemon) waitHealthy(c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, _, err := c.get(d.url("/healthz"))
		if err == nil && st == 200 {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before serving (%v); log: %s", d.waitErr, lastLines(d.logPath, 5))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after %v; log: %s", timeout, lastLines(d.logPath, 5))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine: we wait below
	<-d.exited
}

// stop shuts the daemon down gracefully (SIGTERM), escalating to SIGKILL
// after grace.
func (d *daemon) stop(grace time.Duration) {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a failed signal falls through to the kill below
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.kill()
	}
}

// procStatus reads one kB field (VmHWM, VmRSS) of the daemon's
// /proc/<pid>/status, in MB.
func (d *daemon) procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// writtenBytes is the daemon's wchar counter: bytes passed to write
// system calls (journal, snapshots and the small HTTP responses).
func (d *daemon) writtenBytes() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc io")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// lastLines returns up to n trailing lines of a log file.
func lastLines(path string, n int) string {
	f, err := os.Open(path)
	if err != nil {
		return "(no log)"
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > n {
			lines = lines[1:]
		}
	}
	return strings.Join(lines, " | ")
}
