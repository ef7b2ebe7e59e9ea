//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestAnonReadsFIFO: pskanon opens -in once and reads the header and the
// rows through one reader, so a named pipe, which yields its bytes once,
// releases what the same file read by path releases. The input is larger
// than a read buffer and a pipe buffer together: a tool that read the
// header through one open would close the pipe on the writer and then
// open it again for the rows.
func TestAnonReadsFIFO(t *testing.T) {
	_, jobPath, dir := writeFixtures(t)
	var sb strings.Builder
	sb.WriteString("Age,ZipCode,Sex,Illness\n")
	illness := []string{"Flu", "Asthma", "Diabetes", "Heart Disease"}
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "%d,%d,%c,%s\n", 20+i%50, 41076+i%7*1013, "MF"[i%2], illness[i*3%4])
	}
	data := sb.String()
	path := filepath.Join(dir, "patients20k.csv")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "patients20k.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("no FIFO here: %v", err)
	}
	type release struct {
		stdout, stderr string
		err            error
	}
	anon := func(in string) release {
		var stdout, stderr strings.Builder
		err := Anon([]string{"-in", in, "-job", jobPath, "-workers", "1"}, &stdout, &stderr)
		return release{stdout.String(), stderr.String(), err}
	}
	want := anon(path)
	if want.err != nil {
		t.Fatalf("Anon -in %s: %v\nstderr: %s", path, want.err, want.stderr)
	}

	fed := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err == nil {
			_, err = io.WriteString(f, data)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		fed <- err
	}()
	done := make(chan release, 1)
	go func() { done <- anon(fifo) }()
	if err := <-fed; err != nil {
		// The reader closed the pipe before draining it. Should it open
		// the pipe again, an empty stream lets it return.
		go func() {
			if f, err := os.OpenFile(fifo, os.O_WRONLY, 0); err == nil {
				f.Close()
			}
		}()
		t.Errorf("feeding the FIFO: %v", err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("Anon -in FIFO: %v\nstderr: %s", got.err, got.stderr)
	}
	if got.stdout != want.stdout {
		t.Errorf("FIFO input released %d bytes on stdout, the file by path %d", len(got.stdout), len(want.stdout))
	}
	if got.stderr != want.stderr {
		t.Errorf("FIFO input: stderr %q, the file by path %q", got.stderr, want.stderr)
	}
}
