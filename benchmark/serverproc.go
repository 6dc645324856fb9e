package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
)

// buildServer compiles the tree's own cmd/server, so the numbers are
// those of the code in this checkout and of nothing installed.
func buildServer(ctx context.Context, c *config) (string, error) {
	bin := filepath.Join(c.buildDir(), "bin", "server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/server")
	cmd.Dir = c.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/server: %w\n%s", err, out)
	}
	return bin, nil
}

// tail keeps the last bytes written to it: the server's stderr, quoted
// when a run fails.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// serverProc is one running cmd/server subprocess.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tail
	exited chan struct{} // closed once Wait has returned
	setup  time.Duration // exec → first /readyz 200
}

// startServer execs the server with the pinned flags on a free loopback
// port and waits for /readyz. A lost race for the port is retried on a
// new one.
func startServer(ctx context.Context, bin string, flags []string, gomaxprocs int) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		p, err := startServerOnce(ctx, bin, flags, gomaxprocs)
		if err == nil {
			return p, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func startServerOnce(ctx context.Context, bin string, flags []string, gomaxprocs int) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &serverProc{addr: addr, stderr: &tail{}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	p.cmd.Stderr = p.stderr
	// The server dies with the benchmark even if the benchmark is killed
	// before it can clean up.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed server carries no news
		close(p.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.After(60 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("server exited before it was ready; stderr tail:\n%s", p.stderr)
		case <-deadline:
			p.kill()
			return nil, fmt.Errorf("server not ready after 60s; stderr tail:\n%s", p.stderr)
		case <-ctx.Done():
			p.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func (p *serverProc) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuNS is the time the server's threads have spent on a CPU, from
// /proc/<pid>/task/*/schedstat (nanosecond resolution, where the tick
// counts of /proc/<pid>/stat have ten milliseconds).
func (p *serverProc) cpuNS() int64 {
	paths, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	var total int64
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += ns
		}
	}
	return total
}

// settle waits until the server has been nearly idle for two windows in
// a row, or for the limit: a machine-speed reading taken while the
// server is still collecting the garbage of the slice before it would
// read the server, not the machine. A trickle of work, such as churn's
// write stream, counts as idle.
func (p *serverProc) settle(limit time.Duration) {
	const window, busy = 10 * time.Millisecond, 1500 * time.Microsecond
	deadline := time.Now().Add(limit)
	quiet := 0
	last := p.cpuNS()
	for quiet < 2 && time.Now().Before(deadline) {
		time.Sleep(window)
		now := p.cpuNS()
		if time.Duration(now-last) < busy {
			quiet++
		} else {
			quiet = 0
		}
		last = now
	}
}
