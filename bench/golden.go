package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// goldenPath is where a workload's goldens live under the checkout root.
func goldenPath(root, name string) string {
	return filepath.Join(root, "bench", "golden", name+".txt")
}

// checker verifies responses against goldens: each maps a request
// body's hash to its response body's hash. In record mode it collects
// the hashes instead, for -update-golden.
type checker struct {
	mu     sync.Mutex
	want   map[string]string
	record bool
}

func loadGoldens(path string) (*checker, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading goldens: %w", err)
	}
	defer f.Close()
	c := &checker{want: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, resp, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		c.want[req] = resp
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return c, nil
}

// check reports whether a response is a 200 whose body matches the golden.
func (c *checker) check(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", r.path, r.body, status, strings.TrimSpace(string(body)))
	}
	got := shortHash(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.want[r.hash]
	switch {
	case !ok && c.record:
		c.want[r.hash] = got
		return nil
	case !ok:
		return fmt.Errorf("%s %s: no golden for request %s", r.path, r.body, r.hash)
	case got != want:
		return fmt.Errorf("%s %s: response %s, golden %s", r.path, r.body, got, want)
	}
	return nil
}

// write saves the recorded goldens, sorted by request hash.
func (c *checker) write(path, workload string) error {
	keys := make([]string, 0, len(c.want))
	for k := range c.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: SHA-256 prefix of each request body, then of its response body.\n", workload)
	b.WriteString("# Regenerate with -update-golden only for an intentional change of what the server computes.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, c.want[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
