package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Env is where a run builds and keeps its files: the repository root
// (so cmd/mviewd can be built from source) and a scratch directory
// inside it for binaries, data dirs and logs.
type Env struct {
	Root    string // repository root (holds go.mod and cmd/mviewd)
	Scratch string // <Root>/.bench_build
	tmp     string // this process's temp dir under Scratch/tmp

	mu      sync.Mutex
	daemons map[*daemon]struct{}
}

// NewEnv prepares the scratch directory. Close removes the temp dir
// and kills every daemon still running.
func NewEnv(root string) (*Env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "mviewd", "main.go")); err != nil {
		return nil, fmt.Errorf("%s is not the mview repository: %w", abs, err)
	}
	e := &Env{Root: abs, Scratch: filepath.Join(abs, ".bench_build"), daemons: make(map[*daemon]struct{})}
	if err := os.MkdirAll(filepath.Join(e.Scratch, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(e.Scratch, "tmp"), "mviewload-"); err != nil {
		return nil, err
	}
	return e, nil
}

// Close kills every daemon the run left behind and removes its files.
func (e *Env) Close() {
	e.mu.Lock()
	left := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		left = append(left, d)
	}
	e.mu.Unlock()
	for _, d := range left {
		d.kill()
	}
	_ = os.RemoveAll(e.tmp)
}

// Tmp is this run's temporary directory, removed by Close.
func (e *Env) Tmp() string { return e.tmp }

func (e *Env) mviewdPath() string { return filepath.Join(e.Scratch, "mviewd") }

// goEnv keeps the toolchain's cache and temp files inside the scratch
// directory unless the caller already chose a cache.
func (e *Env) goEnv() []string {
	env := os.Environ()
	if os.Getenv("GOCACHE") == "" {
		env = append(env, "GOCACHE="+filepath.Join(e.Scratch, "gocache"))
	}
	if os.Getenv("GOTMPDIR") == "" {
		env = append(env, "GOTMPDIR="+filepath.Join(e.Scratch, "tmp"))
	}
	return append(env, "GOFLAGS=-buildvcs=false")
}

// BuildDaemon compiles cmd/mviewd from the repository's source.
func (e *Env) BuildDaemon(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.mviewdPath(), "./cmd/mviewd")
	cmd.Dir = e.Root
	cmd.Env = e.goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/mviewd: %w\n%s", err, out)
	}
	return nil
}

// dataDir returns a fresh directory for a durable daemon.
func (e *Env) dataDir() (string, error) { return os.MkdirTemp(e.tmp, "data-") }

// daemon is one mviewd child process.
type daemon struct {
	env  *Env
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start launches mviewd on a free loopback port with the given flags
// and waits until it answers GET /v1/catalog.
func (e *Env) start(ctx context.Context, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(e.tmp, "mviewd-*.log")
	if err != nil {
		return nil, err
	}
	d := &daemon{env: e, addr: addr, log: logf, done: make(chan struct{})}
	d.cmd = exec.Command(e.mviewdPath(), append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	e.mu.Lock()
	e.daemons[d] = struct{}{}
	e.mu.Unlock()
	go func() {
		_ = d.cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(ctx, 20*time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("mviewd %v: %w\n%s", args, err, d.logTail())
	}
	return d, nil
}

// waitReady polls GET /v1/catalog until it answers 200.
func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.done:
			return errors.New("exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if c, err := newConn(tcpDialer(d.addr)); err == nil {
			_, err = c.call("GET", "/v1/catalog", nil)
			c.close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.log.Close()
	d.env.mu.Lock()
	delete(d.env.daemons, d)
	d.env.mu.Unlock()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) url() string { return "http://" + d.addr }

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// procSample is what /proc says about a set of pids at one instant.
type procSample struct {
	userTicks, sysTicks float64 // clock ticks (USER_HZ = 100 on Linux)
	ctxSwitches         float64 // voluntary + involuntary, all threads
	hwmKB               float64 // sum of VmHWM
}

const ticksPerSecond = 100

// sampleProc reads CPU time, context switches and peak RSS of the
// processes from /proc. Readings of a process that is gone are skipped.
func sampleProc(pids ...int) procSample {
	var s procSample
	for _, p := range pids {
		pid := strconv.Itoa(p)
		if b, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
			// Fields after the parenthesised command name; utime and
			// stime are fields 14 and 15 of the whole line.
			if i := bytes.LastIndexByte(b, ')'); i >= 0 {
				f := strings.Fields(string(b[i+1:]))
				if len(f) > 12 {
					u, _ := strconv.ParseFloat(f[11], 64)
					k, _ := strconv.ParseFloat(f[12], 64)
					s.userTicks += u
					s.sysTicks += k
				}
			}
		}
		if b, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
			s.hwmKB += statusField(b, "VmHWM:")
		}
		tasks, _ := os.ReadDir("/proc/" + pid + "/task")
		for _, t := range tasks {
			if b, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/status"); err == nil {
				s.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") +
					statusField(b, "nonvoluntary_ctxt_switches:")
			}
		}
	}
	return s
}

// statusField returns the number following key at the start of a line
// of /proc/<pid>/status.
func statusField(b []byte, key string) float64 {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the files in dir whose names start with
// prefix.
func dirBytes(dir, prefix string) float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total float64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			if info, err := e.Info(); err == nil {
				total += float64(info.Size())
			}
		}
	}
	return total
}
