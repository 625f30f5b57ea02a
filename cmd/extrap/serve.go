package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"extrap/internal/serve"
)

// cmdServe runs the extrapolation service: a JSON-over-HTTP API backed
// by the shared experiment engine. It blocks until SIGINT/SIGTERM, then
// drains in-flight requests and exits.
func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	maxInflight := fs.Int("max-inflight", 32, "maximum concurrently executing compute requests")
	queueWait := fs.Duration("queue-wait", 500*time.Millisecond, "how long an excess request may wait for a slot before a 429 (0 rejects immediately)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request pipeline deadline")
	workers := fs.Int("workers", 0, "ladder points a sweep or job runs at once (0 = all CPUs; on a coordinator, shards in flight, 0 = a whole ladder)")
	cacheEntries := fs.Int("cache-entries", 256, "measurement memo-cache bound (LRU-evicted past it)")
	maxTraceBytes := fs.Int64("max-trace-bytes", 256<<20, "per-measurement encoded-trace budget in bytes; requests past it get 413 (-1 = unlimited)")
	storeDir := fs.String("store-dir", "", "durable artifact store directory; enables on-disk trace/prediction reuse and the async jobs API (empty = in-memory only)")
	storeBytes := fs.Int64("store-bytes", 0, "artifact store on-disk budget in bytes, LRU-evicted past it (0 = unlimited)")
	jobWorkers := fs.Int("jobs-workers", 1, "concurrently executing async jobs (requires -store-dir)")
	role := fs.String("role", "solo", "cluster role: solo (default), coordinator (shard sweeps across -peers), or worker (accept shards on internal endpoints)")
	peers := fs.String("peers", "", "comma-separated peer base URLs; for a coordinator the worker replicas (required, ≥ 1), for a worker optionally one peer to read measurement artifacts through")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxInflight < 1 {
		return fmt.Errorf("serve: -max-inflight must be ≥ 1, got %d", *maxInflight)
	}
	if *workers < 0 {
		return fmt.Errorf("serve: -workers must be ≥ 0 (0 = all CPUs), got %d", *workers)
	}
	if *timeout <= 0 {
		return fmt.Errorf("serve: -timeout must be positive, got %v", *timeout)
	}
	if *cacheEntries < 1 {
		return fmt.Errorf("serve: -cache-entries must be ≥ 1, got %d", *cacheEntries)
	}
	if *maxTraceBytes == 0 {
		return fmt.Errorf("serve: -max-trace-bytes must be positive (or -1 for unlimited), got 0")
	}
	if *storeBytes < 0 {
		return fmt.Errorf("serve: -store-bytes must be ≥ 0 (0 = unlimited), got %d", *storeBytes)
	}
	if *jobWorkers < 1 {
		return fmt.Errorf("serve: -jobs-workers must be ≥ 1, got %d", *jobWorkers)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("serve: -peers entry %q is not an http(s) base URL", p)
		}
		peerList = append(peerList, strings.TrimRight(p, "/"))
	}

	srv, err := serve.New(serve.Config{
		MaxInFlight:    *maxInflight,
		QueueWait:      *queueWait,
		RequestTimeout: *timeout,
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		MaxTraceBytes:  *maxTraceBytes,
		StoreDir:       *storeDir,
		StoreBytes:     *storeBytes,
		JobWorkers:     *jobWorkers,
		Role:           *role,
		Peers:          peerList,
		EnablePprof:    *pprofFlag,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(out, "extrap serve listening on http://%s (max-inflight=%d timeout=%v)\n",
		ln.Addr(), *maxInflight, *timeout)
	return srv.Serve(ctx, ln)
}
