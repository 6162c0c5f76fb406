package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// obsMode is how much of mviewd's own instrumentation a deployment
// switches on.
type obsMode int

const (
	obsOff      obsMode = iota // -metrics=false -trace-ring 0: end-to-end numbers
	obsRegistry                // -metrics=true  -trace-ring 0: counters, no spans
	obsTraced                  // -metrics=true  -trace-ring 256: the traced pass
)

func (m obsMode) args() []string {
	switch m {
	case obsRegistry:
		return []string{"-metrics=true", "-trace-ring", "0"}
	case obsTraced:
		return []string{"-metrics=true", "-trace-ring", "256"}
	}
	return []string{"-metrics=false", "-trace-ring", "0"}
}

// Deployment is the system under test: a leader and, for workloads
// with a reader, one follower. The benchmark runs child processes; the
// self-test substitutes in-process servers.
type Deployment interface {
	// Start brings the leader up, empty.
	Start(ctx context.Context) error
	// StartFollower brings a follower of the leader up.
	StartFollower(ctx context.Context) error
	Leader() dialer
	Follower() dialer // nil before StartFollower
	// Proc samples CPU, context switches and peak RSS of every daemon.
	Proc() procSample
	// DataDir is the leader's durable directory ("" when in memory).
	DataDir() string
	// Crash kills the leader without warning; Restart brings it back on
	// the same data directory and returns once it answers.
	Crash()
	Restart(ctx context.Context) error
	// Stop kills everything and removes the data directory.
	Stop()
}

// Deployer creates a deployment for a scenario.
type Deployer func(sc *Scenario, mode obsMode) (Deployment, error)

// procDeployment runs mviewd child processes.
type procDeployment struct {
	env      *Env
	sc       *Scenario
	mode     obsMode
	dir      string
	leader   *daemon
	follower *daemon
}

// ProcessDeployer builds cmd/mviewd and runs it as child processes.
func ProcessDeployer(env *Env) Deployer {
	return func(sc *Scenario, mode obsMode) (Deployment, error) {
		return &procDeployment{env: env, sc: sc, mode: mode}, nil
	}
}

func (p *procDeployment) leaderArgs() []string {
	args := p.mode.args()
	if p.sc.Durable {
		args = append(args, "-data", p.dir)
	}
	if p.sc.Group {
		args = append(args, "-group-commit")
	}
	if p.sc.ReadView != "" {
		args = append(args, "-replicate")
	}
	return args
}

func (p *procDeployment) Start(ctx context.Context) error {
	if err := p.env.BuildDaemon(ctx); err != nil {
		return err
	}
	if p.sc.Durable {
		dir, err := p.env.dataDir()
		if err != nil {
			return err
		}
		p.dir = dir
	}
	d, err := p.env.start(ctx, p.leaderArgs()...)
	p.leader = d
	return err
}

func (p *procDeployment) StartFollower(ctx context.Context) error {
	args := append(p.mode.args(), "-follow", p.leader.url(), "-follower-id", "bench-follower")
	d, err := p.env.start(ctx, args...)
	p.follower = d
	return err
}

func (p *procDeployment) Leader() dialer { return tcpDialer(p.leader.addr) }

func (p *procDeployment) Follower() dialer {
	if p.follower == nil {
		return nil
	}
	return tcpDialer(p.follower.addr)
}

func (p *procDeployment) daemons() []*daemon {
	var ds []*daemon
	for _, d := range []*daemon{p.leader, p.follower} {
		if d != nil {
			ds = append(ds, d)
		}
	}
	return ds
}

func (p *procDeployment) Proc() procSample {
	var pids []int
	for _, d := range p.daemons() {
		pids = append(pids, d.pid())
	}
	return sampleProc(pids...)
}

func (p *procDeployment) DataDir() string { return p.dir }

func (p *procDeployment) Crash() {
	p.leader.kill()
	p.leader = nil
}

func (p *procDeployment) Restart(ctx context.Context) error {
	d, err := p.env.start(ctx, p.leaderArgs()...)
	p.leader = d
	return err
}

func (p *procDeployment) Stop() {
	for _, d := range p.daemons() {
		d.kill()
	}
	p.leader, p.follower = nil, nil
}

// preloadBatch is how many rows one preload transaction inserts.
const preloadBatch = 2000

// bringUp starts a deployment and loads the scenario into it: base
// relations, rows, views, then the follower, which bootstraps from the
// leader's snapshot.
func bringUp(ctx context.Context, dep Deployment, sc *Scenario) error {
	if err := dep.Start(ctx); err != nil {
		return err
	}
	c, err := newConn(dep.Leader())
	if err != nil {
		return err
	}
	defer c.close()
	for _, rd := range sc.Rels {
		body, _ := json.Marshal(map[string]any{"name": rd.Name, "attrs": rd.Attrs})
		if _, err := c.call("POST", "/v1/relations", body); err != nil {
			return err
		}
	}
	var ops []Op
	var body []byte
	for rel, rows := range sc.Preload {
		for len(rows) > 0 {
			n := min(len(rows), preloadBatch)
			ops = ops[:0]
			for _, row := range rows[:n] {
				ops = append(ops, Op{Rel: int8(rel), V: row})
			}
			rows = rows[n:]
			body = appendExecBody(body[:0], sc, ops)
			if _, err := c.call("POST", "/v1/exec", body); err != nil {
				return err
			}
		}
	}
	for _, vd := range sc.Views {
		body, _ := json.Marshal(vd)
		if _, err := c.call("POST", "/v1/views", body); err != nil {
			return err
		}
	}
	if sc.ReadView == "" {
		return nil
	}
	if err := dep.StartFollower(ctx); err != nil {
		return err
	}
	// The follower answers before its bootstrap has finished; wait until
	// it serves the view the reader will poll, at full size.
	fc, err := newConn(dep.Follower())
	if err != nil {
		return err
	}
	defer fc.close()
	want := []byte(fmt.Sprintf(`"count":%d,`, len(sc.Preload[0])))
	return waitFor(ctx, 20*time.Second, func() error {
		resp, err := fc.call("GET", "/v1/views/"+sc.ReadView, nil)
		if err != nil {
			return err
		}
		if !bytes.Contains(resp, want) {
			return fmt.Errorf("follower's %s is not at %s yet", sc.ReadView, want)
		}
		return nil
	})
}

// waitFor retries f until it succeeds, the limit passes or the run is
// cancelled, and returns f's last error.
func waitFor(ctx context.Context, limit time.Duration, f func() error) error {
	deadline := time.Now().Add(limit)
	for {
		err := f()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// getter returns a fetcher over its own connection to a daemon.
func getter(d dialer) (fetcher, func(), error) {
	c, err := newConn(d)
	if err != nil {
		return nil, nil, err
	}
	return func(path string) ([]byte, error) { return c.call("GET", path, nil) }, c.close, nil
}
