package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one server process the benchmark started.
type server struct {
	cmd   *exec.Cmd
	addrs map[string]string // announced addresses by label
	exit  chan struct{}
}

// serverProcs is the GOMAXPROCS every server process gets.
func serverProcs() int { return runtime.NumCPU() }

// addrLine matches the log lines in which servers announce where they
// listen: "<label> ... on 127.0.0.1:port".
var addrLine = regexp.MustCompile(`(serving realm|admin listener|perfbench-ready \S+).* on (127\.0\.0\.1:\d+)`)

// startServer launches a server process with stdin as its input and
// waits until it has announced each of the wanted labels. The process
// dies with the benchmark (Pdeathsig) and its stderr is drained for
// the rest of its life so logging can never block it.
func startServer(stdin string, want []string, name string, args ...string) (*server, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdin = strings.NewReader(stdin)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addrs: map[string]string{}, exit: make(chan struct{})}
	found := make(chan map[string]string, 1)
	var tail []string
	go func() {
		sc := bufio.NewScanner(stderr)
		got := map[string]string{}
		reported := false
		for sc.Scan() {
			line := sc.Text()
			if !reported {
				tail = append(tail, line)
				if m := addrLine.FindStringSubmatch(line); m != nil {
					got[m[1]] = m[2]
				}
				if len(got) >= len(want) {
					found <- got
					reported = true
				}
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(s.exit)
	}()
	select {
	case got := <-found:
		for _, w := range want {
			if got[w] == "" {
				s.stop()
				return nil, fmt.Errorf("%s announced %v, want %v", filepath.Base(name), got, want)
			}
			s.addrs[w] = got[w]
		}
		return s, nil
	case <-s.exit:
		return nil, fmt.Errorf("%s exited during start-up: %s", filepath.Base(name), strings.Join(tail, " | "))
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not announce %v within 60s", filepath.Base(name), want)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop terminates the process and waits for it to exit.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exit:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exit
	}
}

// procSample is a server process's cumulative resource use.
type procSample struct {
	cpu   time.Duration            // user+sys, all threads, including exited ones (clock ticks)
	oncpu map[string]time.Duration // per live thread: time on a CPU (ns)
	ctxsw int64                    // voluntary+involuntary switches of live threads
	runq  time.Duration            // time runnable but waiting for a CPU, live threads
}

// sampleProc reads /proc/<pid>/stat for CPU and every thread's status
// and schedstat for context switches, time on a CPU and run-queue wait.
func sampleProc(pid int) (procSample, error) {
	s := procSample{oncpu: map[string]time.Duration{}}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clkTck = 100
	s.cpu = time.Duration((ut + st) * int64(time.Second) / clkTck)
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	for _, t := range tasks {
		if data, err := os.ReadFile(t + "/status"); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.HasSuffix(strings.SplitN(line, ":", 2)[0], "ctxt_switches") {
					n, _ := strconv.ParseInt(strings.TrimSpace(strings.SplitN(line, ":", 2)[1]), 10, 64)
					s.ctxsw += n
				}
			}
		}
		if data, err := os.ReadFile(t + "/schedstat"); err == nil {
			if f := strings.Fields(string(data)); len(f) >= 2 {
				on, _ := strconv.ParseInt(f[0], 10, 64)
				s.oncpu[filepath.Base(t)] = time.Duration(on)
				n, _ := strconv.ParseInt(f[1], 10, 64)
				s.runq += time.Duration(n)
			}
		}
	}
	return s, nil
}

// sub returns the use between b and a. Its cpu is the nanosecond
// on-CPU time of the threads alive at a (less what each had at b),
// unless the clock-tick total says more was used, which happens only
// when a thread exited in between.
func (a procSample) sub(b procSample) procSample {
	var on time.Duration
	for tid, t := range a.oncpu {
		on += t - b.oncpu[tid]
	}
	cpu := a.cpu - b.cpu
	if on > 0 && cpu < on+30*time.Millisecond {
		cpu = on
	}
	return procSample{cpu: cpu, ctxsw: a.ctxsw - b.ctxsw, runq: a.runq - b.runq}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// udpRcvbufErrors reads the namespace-wide count of datagrams dropped
// because a socket's receive buffer was full.
func udpRcvbufErrors() int64 {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var head []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "Udp:") {
			continue
		}
		f := strings.Fields(line)
		if head == nil {
			head = f
			continue
		}
		for i, h := range head {
			if h == "RcvbufErrors" && i < len(f) {
				n, _ := strconv.ParseInt(f[i], 10, 64)
				return n
			}
		}
	}
	return 0
}

// scrapeMetrics reads a server's /metrics exposition into name → value.
func scrapeMetrics(addr string) (map[string]float64, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
