package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark is calibrated on shares its CPUs and memory
// with other machines. Its speed drifts by a fifth over minutes, longer
// than a run, so raw times of two runs minutes apart differ by as much as
// a regression would; and within a run, bursts of contention slow a
// changing share of the samples. A reference process runs one fixed
// kernel on demand, between the ops, and each gated time is scaled by
// refNominalMs over the kernel's median time in the same phase of the
// same run: host drift slows ops and kernel alike and largely cancels,
// while a program change moves only the ops. Scaled times read as
// milliseconds on the calibration host. The kernel lives in its own
// process so that the program's heap and collector never slow it.

// refNominalMs is about the kernel's median time on the calibration host
// (two vCPUs of an Intel Xeon Sapphire Rapids under KVM, Go 1.24), where
// run medians ranged from 23 to 45 ms over two hours.
const refNominalMs = 30.0

// refEvery spaces the reference samples: a tenth of a run's time goes to
// the kernel.
const refEvery = 250 * time.Millisecond

// refKernel is fixed work in the mix the workloads do: allocate short
// strings, then sort them.
func refKernel() string {
	xs := make([]string, 100_000)
	for i := range xs {
		xs[i] = strconv.Itoa(i * 7919 % 100_003)
	}
	sort.Strings(xs)
	return xs[len(xs)/2]
}

// refChild serves the reference process: one kernel run per byte read,
// its duration in nanoseconds written back as a line.
func refChild(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		start := time.Now()
		refKernel()
		if _, err := fmt.Fprintln(out, time.Since(start).Nanoseconds()); err != nil {
			return err
		}
	}
}

// reference drives the reference process and keeps its timings.
type reference struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	ms     []float64 // every sample, set-up first
	setupN int       // how many of ms set-up took
	last   time.Time
}

func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{cmd: exec.Command(self)}
	r.cmd.Env = append(os.Environ(), childEnv+"=ref")
	r.cmd.Stderr = os.Stderr
	if r.in, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	r.out = bufio.NewReader(stdout)
	if err := r.cmd.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// sample times one kernel run.
func (r *reference) sample() error {
	if _, err := r.in.Write([]byte{1}); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	r.ms = append(r.ms, float64(ns)/1e6)
	r.last = time.Now()
	return nil
}

// due samples when refEvery has passed since the last sample; loops call
// it between ops.
func (r *reference) due() error {
	if time.Since(r.last) < refEvery {
		return nil
	}
	return r.sample()
}

// block takes n samples back to back.
func (r *reference) block(n int) error {
	for i := 0; i < n; i++ {
		if err := r.sample(); err != nil {
			return err
		}
	}
	return nil
}

// setupDone marks the end of set-up and takes the first sample of the
// measured phase.
func (r *reference) setupDone() error {
	r.setupN = len(r.ms)
	return r.sample()
}

// setupScale converts set-up times to the calibration host's.
func (r *reference) setupScale() float64 { return nominalOver(r.ms[:r.setupN]) }

// loopScale converts the measured phase's times to the calibration
// host's.
func (r *reference) loopScale() float64 { return nominalOver(r.ms[r.setupN:]) }

func nominalOver(ms []float64) float64 {
	if m := median(ms); m > 0 {
		return refNominalMs / m
	}
	return 1
}

// stop ends the reference process and waits for it.
func (r *reference) stop() error {
	r.in.Close()
	return r.cmd.Wait()
}
