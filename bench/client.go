package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's width: this many goroutines, each sending
// its next request only after reading the previous reply, over at most
// this many keep-alive connections. It matches the two cores the
// benchmark is sized for.
const clients = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// send posts r and reads the whole response body.
func send(c *http.Client, base string, r *request) (int, []byte, error) {
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading %s response: %w", r.path, err)
	}
	return resp.StatusCode, body, nil
}

// outcome is one request's client-side latency, from sending it to
// reading the last byte of the reply, and its check result.
type outcome struct {
	latency time.Duration
	err     error
}

// drive sends reqs in order through the closed loop until they run out
// or more(done, elapsed) turns false, checking each reply. It returns the
// outcomes of the requests sent, in stream order, and the phase's wall
// time.
func drive(c *http.Client, base string, reqs []*request, more func(done int, elapsed time.Duration) bool,
	check func(*request, int, []byte) error) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next, done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(int(done.Load()), time.Since(start)) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				status, body, err := send(c, base, reqs[i])
				lat := time.Since(t0)
				if err == nil {
					err = check(reqs[i], status, body)
				}
				out[i] = outcome{latency: lat, err: err}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return out[:min(int(next.Load()), len(reqs))], elapsed
}

// sendAll sends every request through the closed loop and returns the
// outcomes.
func sendAll(c *http.Client, base string, reqs []*request, check func(*request, int, []byte) error) []outcome {
	out, _ := drive(c, base, reqs, func(int, time.Duration) bool { return true }, check)
	return out
}
