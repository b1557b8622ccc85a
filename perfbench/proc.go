package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sketchd is one running cmd/sketchd child process.
type sketchd struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// live tracks every started child, so any exit path can stop them.
var live struct {
	sync.Mutex
	procs map[*sketchd]bool
}

// startSketchd execs the server on an ephemeral port and returns once
// it has announced its address (restore-on-boot finishes before that).
// dataDir "" runs without persistence; the periodic checkpointer is
// off, so only the benchmark's own requests and the drain write.
func startSketchd(bin, dataDir string) (*sketchd, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir,
		"-checkpoint-every", "0", "-max-inflight", "64")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sketchd: %w", err)
	}
	p := &sketchd{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*sketchd]bool)
	}
	live.procs[p] = true
	live.Unlock()

	lines := bufio.NewReader(out)
	first, readErr := lines.ReadString('\n')
	go func() {
		io.Copy(io.Discard, lines) // keep the pipe drained until exit
		p.err = cmd.Wait()
		close(p.done)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(first), "listening on ")
	if readErr != nil || !ok {
		p.kill()
		return nil, fmt.Errorf("sketchd did not announce its address (got %q): %v", first, readErr)
	}
	p.base = "http://" + addr
	return p, nil
}

// stop sends SIGTERM and waits for the drain to finish; the process is
// killed if it has not exited after a minute.
func (p *sketchd) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.kill()
		return err
	}
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		p.kill()
		return errors.New("sketchd did not drain within a minute")
	}
	p.forget()
	return p.err
}

// kill ends the process without a drain and waits for it.
func (p *sketchd) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.forget()
}

func (p *sketchd) forget() {
	live.Lock()
	defer live.Unlock()
	delete(live.procs, p)
}

// killAll kills every child still running.
func killAll() {
	live.Lock()
	procs := make([]*sketchd, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (p *sketchd) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(p.cmd.Process.Pid)) }

// cpuSeconds reads the process's user+system CPU time.
func (p *sketchd) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / 100, nil
}
