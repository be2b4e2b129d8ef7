package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// child is a started product process. It dies with the harness: the
// context kills it on every return path, and the kernel kills it if the
// harness itself is killed.
type child struct {
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	started time.Time
	exited  chan struct{} // closed once Wait has returned
	waiter  sync.WaitGroup
	waitErr error
}

func (e *env) start(ctx context.Context, tool string, args ...string) (*child, error) {
	c := &child{exited: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, filepath.Join(e.binDir, tool), args...)
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.WaitDelay = 5 * time.Second
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	c.waiter.Add(1)
	go func() {
		defer c.waiter.Done()
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// wait blocks until the child has exited or the timeout passes; on
// timeout the child is killed and the timeout is the error.
func (c *child) wait(timeout time.Duration) error {
	defer c.waiter.Wait()
	select {
	case <-c.exited:
		if c.waitErr != nil {
			return fmt.Errorf("%s: %v: %s", filepath.Base(c.cmd.Path), c.waitErr, bytes.TrimSpace(c.stderr.Bytes()))
		}
		return nil
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill() // Wait below reports the outcome
		<-c.exited
		return fmt.Errorf("%s: no exit within %v, killed", filepath.Base(c.cmd.Path), timeout)
	}
}

func (c *child) cpu() time.Duration {
	return c.cmd.ProcessState.UserTime() + c.cmd.ProcessState.SystemTime()
}

// peakRSSMB is the child's high-water resident set (ru_maxrss is KiB on
// Linux).
func (c *child) peakRSSMB() float64 {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procStats is one finished invocation.
type procStats struct {
	wall, cpu time.Duration
	peakRSSMB float64
}

// execTimeout bounds every one-shot tool invocation.
const execTimeout = 60 * time.Second

// run executes a tool to completion; a non-zero exit or a timeout is
// the error.
func (e *env) run(ctx context.Context, tool string, args ...string) (procStats, error) {
	c, err := e.start(ctx, tool, args...)
	if err != nil {
		return procStats{}, err
	}
	err = c.wait(execTimeout)
	return procStats{wall: time.Since(c.started), cpu: c.cpu(), peakRSSMB: c.peakRSSMB()}, err
}

// freePort asks the kernel for an unused loopback port. Another process
// can take it before the child binds; startDaemon retries then.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
