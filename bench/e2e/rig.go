package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDir holds everything the harness writes: built binaries, daemon data
// directories, traces. It sits inside the checkout and is git-ignored.
const workDir = ".bench_build/e2e"

// rig owns every child process and temp directory of one harness run, so
// that one close() — on return, signal, panic or timeout — leaves nothing
// behind.
type rig struct {
	bin   string        // directory of the built daemons
	tmp   string        // per-run scratch (data dirs, times-json files)
	built time.Duration // how long building the daemons took

	mu       sync.Mutex
	children []*child
	closed   bool
}

// child is one daemon subprocess in its own process group, its stderr kept
// in memory and shown only when something fails.
type child struct {
	name    string
	cmd     *exec.Cmd
	stderr  lockedBuffer
	exited  chan struct{} // closed once Wait returned
	waitErr error         // Wait's result, readable after exited is closed
	url     string
}

// lockedBuffer lets the harness read a live child's stderr while os/exec's
// copying goroutine still appends to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// checkRig refuses to measure on a degraded rig: the workloads are sized
// for two connections on at least two CPUs, and the harness resolves every
// path from the repository root.
func checkRig() error {
	if n := runtime.NumCPU(); n < 2 {
		return fmt.Errorf("needs at least 2 CPUs (one for the load generator, one for the daemons), have %d", n)
	}
	mod, err := os.ReadFile("go.mod")
	if err != nil || !bytes.HasPrefix(mod, []byte("module edgescope\n")) {
		return errors.New("run from the repository root (go.mod of module edgescope not found in the working directory)")
	}
	return nil
}

// newRig builds cmd/telemetryd and cmd/reproall and makes the run's scratch
// directory. The build is in no metric but loadgen.build_s.
func newRig() (*rig, error) {
	bin, err := filepath.Abs(filepath.Join(workDir, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	began := time.Now()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/telemetryd", "./cmd/reproall")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build of the daemons failed: %v\n%s", err, out)
	}
	built := time.Since(began)
	tmp, err := os.MkdirTemp(filepath.Dir(bin), "run-")
	if err != nil {
		return nil, err
	}
	return &rig{bin: bin, tmp: tmp, built: built}, nil
}

// dir makes a fresh directory under the run's scratch.
func (r *rig) dir(prefix string) (string, error) {
	return os.MkdirTemp(r.tmp, prefix+"-")
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds, so a collision is possible but shows up
// as a daemon that never turns healthy, which fails the run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches one binary from r.bin in its own process group, so that a
// kill of the group also takes anything the binary forked.
func (r *rig) start(name, binary string, stdout io.Writer, args ...string) (*child, error) {
	c := &child{name: name, exited: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(r.bin, binary), args...)
	c.cmd.Stdout = stdout
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("rig already closed")
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	r.children = append(r.children, c)
	return c, nil
}

// startDaemon launches one telemetryd on a fresh loopback port with a fresh
// data directory and waits until it answers /healthz. Every flag not passed
// here keeps the daemon's default.
func (r *rig) startDaemon(name string, port int, args ...string) (*child, error) {
	data, err := r.dir(name)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	all := append([]string{"-addr", addr, "-data", data, "-window", "1s"}, args...)
	c, err := r.start(name, "telemetryd", nil, all...)
	if err != nil {
		return nil, err
	}
	c.url = "http://" + addr
	if err := c.waitHealthy(10 * time.Second); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) dataDir() string {
	for i, a := range c.cmd.Args {
		if a == "-data" && i+1 < len(c.cmd.Args) {
			return c.cmd.Args[i+1]
		}
	}
	return ""
}

// waitHealthy polls /healthz until the daemon answers 200, it exits, or the
// deadline passes.
func (c *child) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before turning healthy:\n%s", c.name, c.stderr.String())
		default:
		}
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy at %s after %v:\n%s", c.name, c.url, limit, c.stderr.String())
}

// stop kills the given children's process groups, waits for each to be
// reaped and removes its data directory. SIGKILL, not a graceful shutdown:
// the data is deleted next, so a final snapshot would be wasted work inside
// set-up.
func (r *rig) stop(cs ...*child) {
	for _, c := range cs {
		select {
		case <-c.exited: // reaped: its pid may already belong to someone else
		default:
			_ = syscall.Kill(-c.pid(), syscall.SIGKILL) // a group that just exited is fine
		}
	}
	for _, c := range cs {
		<-c.exited
		if d := c.dataDir(); d != "" {
			os.RemoveAll(d)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.children = slices.DeleteFunc(r.children, func(c *child) bool { return slices.Contains(cs, c) })
}

// close stops every child still running and removes the run's scratch. It
// is safe to call more than once and from a signal or timeout goroutine.
func (r *rig) close() {
	r.mu.Lock()
	r.closed = true
	cs := append([]*child(nil), r.children...)
	r.mu.Unlock()
	r.stop(cs...)
	os.RemoveAll(r.tmp)
}

// dumpStderr prints what every live child wrote to stderr; called on
// failure only.
func (r *rig) dumpStderr(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.children {
		fmt.Fprintf(w, "--- stderr of %s (pid %d) ---\n%s", c.name, c.pid(), c.stderr.String())
	}
}

// runToCompletion runs one batch binary to its end under ctx and returns its
// stdout and process state.
func (r *rig) runToCompletion(ctx context.Context, binary string, args ...string) ([]byte, *os.ProcessState, error) {
	var stdout bytes.Buffer
	c, err := r.start(binary, binary, &stdout, args...)
	if err != nil {
		return nil, nil, err
	}
	defer r.stop(c)
	select {
	case <-c.exited:
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("%s %s: %w", binary, strings.Join(args, " "), ctx.Err())
	}
	if c.waitErr != nil {
		return nil, nil, fmt.Errorf("%s %s: %w\n%s", binary, strings.Join(args, " "), c.waitErr, c.stderr.String())
	}
	return stdout.Bytes(), c.cmd.ProcessState, nil
}
