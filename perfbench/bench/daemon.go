package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Daemon is a running p5d with one registered p5worker, both started
// from the commit's own binaries.
type Daemon struct {
	Addr   string // p5d host:port
	Worker string // p5worker host:port
	p5d    *proc
	worker *proc
}

// proc is one started binary; copied closes once its stderr has been
// copied to its log, which happens when the process exits.
type proc struct {
	cmd    *exec.Cmd
	log    *os.File
	copied chan struct{}
}

// startTimeout bounds how long a daemon or worker may take to come up.
const startTimeout = 30 * time.Second

// StartDaemon starts `p5d -fleet -cache-dir cacheDir` and one
// `p5worker -workers 1 -register`, both listening on loopback ports the
// kernel picks, and returns once the worker has registered. Their logs
// go to files under dir. On error everything started is stopped.
func StartDaemon(ctx context.Context, bin, dir, cacheDir string) (*Daemon, error) {
	d := &Daemon{}
	var err error
	d.p5d, d.Addr, err = start(ctx, filepath.Join(bin, "p5d"), filepath.Join(dir, "p5d.log"), "p5d: serving",
		"-fleet", "-cache-dir", cacheDir, "-listen", "127.0.0.1:0", "-quiet")
	if err != nil {
		return nil, err
	}
	d.worker, d.Worker, err = start(ctx, filepath.Join(bin, "p5worker"), filepath.Join(dir, "p5worker.log"), "p5worker: serving",
		"-workers", "1", "-register", d.Addr, "-listen", "127.0.0.1:0", "-quiet")
	if err == nil {
		err = d.awaitWorker(ctx)
	}
	if err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

// start launches one binary and reads its stderr until the line
// announcing its listen address; all of stderr is copied to log.
func start(ctx context.Context, path, log, banner string, args ...string) (*proc, string, error) {
	f, err := os.Create(log)
	if err != nil {
		return nil, "", fmt.Errorf("create log: %w", err)
	}
	p := &proc{cmd: exec.Command(path, args...), log: f, copied: make(chan struct{})}
	p.cmd.Stdout = f
	stderr, err := p.cmd.StderrPipe()
	if err == nil {
		err = p.cmd.Start()
	}
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("start %s: %w", path, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.copied)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(f, line)
			if _, rest, ok := strings.Cut(line, " on "); ok && strings.HasPrefix(line, banner) {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return p, addr, nil
	case <-p.copied:
		err = fmt.Errorf("%s exited before serving (see %s)", path, log)
	case <-time.After(startTimeout):
		err = fmt.Errorf("%s did not start serving within %v (see %s)", path, startTimeout, log)
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.stop()
	return nil, "", err
}

// stop terminates the process (SIGTERM, then SIGKILL after a grace
// period) and waits for it and for its log copy to finish.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.copied:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.copied
	}
	p.cmd.Wait()
	p.log.Close()
}

// awaitWorker polls the daemon's health endpoint until the worker has
// registered.
func (d *Daemon) awaitWorker(ctx context.Context) error {
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		var h struct {
			Workers int `json:"workers"`
		}
		if err := getJSON(ctx, "http://"+d.Addr+"/v1/health", &h); err == nil && h.Workers >= 1 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return errors.New("p5worker did not register with p5d")
}

// DaemonStats is the part of p5d's /v1/stats the benchmark reads.
type DaemonStats struct {
	Submitted     int   `json:"submitted"`
	Simulated     int   `json:"simulated"`
	Hits          int   `json:"hits"`
	Coalesced     int   `json:"coalesced"`
	DiskHits      int   `json:"disk_hits"`
	EstimatedHits int   `json:"estimated_hits"`
	Rejected      int64 `json:"rejected"`
	Requeued      int64 `json:"requeued"`
}

// Stats fetches the daemon's counters.
func (d *Daemon) Stats(ctx context.Context) (DaemonStats, error) {
	var st DaemonStats
	err := getJSON(ctx, "http://"+d.Addr+"/v1/stats", &st)
	return st, err
}

// PeakRSSMB sums the peak resident sets of the daemon and the worker.
func (d *Daemon) PeakRSSMB() (float64, error) {
	var sum float64
	for _, p := range []*proc{d.p5d, d.worker} {
		mb, err := PeakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// Stop terminates the worker, then the daemon, and waits for both.
func (d *Daemon) Stop() {
	for _, p := range []*proc{d.worker, d.p5d} {
		if p != nil {
			p.stop()
		}
	}
}

func getJSON(ctx context.Context, url string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
