//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// lockChildEnv makes a re-executed test binary act as a second process
// opening a store directory: "probe:<dir>" tries once and reports the
// outcome; "hold:<dir>" opens, reports, and waits to be killed.
const lockChildEnv = "EXTRAP_STORE_LOCK_CHILD"

func TestMain(m *testing.M) {
	if mode, dir, ok := strings.Cut(os.Getenv(lockChildEnv), ":"); ok {
		s, err := Open(dir, 0)
		if err != nil {
			fmt.Println("open failed:", err)
			os.Exit(0)
		}
		fmt.Println("opened")
		if mode == "hold" {
			select {}
		}
		s.Close()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lockChild starts the test binary as a second process opening dir and
// returns the line it reports.
func lockChild(t *testing.T, mode, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), lockChildEnv+"="+mode+":"+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child %s: %v", mode, err)
	}
	return cmd, strings.TrimSpace(line)
}

// TestStoreDirLock: a store directory belongs to one open Store. A
// second Open, from this process or a child, fails with an error naming
// the directory while the first store keeps serving; Close releases the
// lock, and so does a SIGKILL of the process holding it.
func TestStoreDirLock(t *testing.T) {
	s, dir := openTemp(t, 0)
	if err := s.Put("before", []byte("one")); err != nil {
		t.Fatal(err)
	}

	if s2, err := Open(dir, 0); err == nil {
		s2.Close()
		t.Fatal("second Open in the same process succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("second Open error %q does not name the directory", err)
	}
	cmd, line := lockChild(t, "probe", dir)
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "open failed:") || !strings.Contains(line, dir) {
		t.Errorf("child process Open reported %q, want a failure naming %s", line, dir)
	}

	if err := s.Put("after", []byte("two")); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"before": "one", "after": "two"} {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, []byte(want)) {
			t.Errorf("first store Get(%q) = %q, %v after the refused opens", key, got, ok)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cmd, line = lockChild(t, "hold", dir)
	if line != "opened" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child could not open the closed store: %s", line)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open after the holder was killed: %v", err)
	}
	defer s3.Close()
	if got, ok := s3.Get("after"); !ok || string(got) != "two" {
		t.Errorf("reopened store Get(after) = %q, %v", got, ok)
	}
}
