package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"

	"extrap/internal/core"
	"extrap/internal/request"
	"extrap/internal/trace"
)

// ArtifactSource is the slice of the artifact store the fetch endpoint
// needs: verified payload bytes by content address. *store.Store
// implements it.
type ArtifactSource interface {
	GetByHash(h [32]byte) ([]byte, bool)
}

// ArtifactHandler serves GET /v1/internal/artifacts/{keyhash}: the
// verified payload stored under the given content address, as raw
// bytes. The keyhash path element is the lowercase hex SHA-256 of the
// artifact's canonical key — exactly what store.KeyHash computes — so a
// peer that knows an artifact's canonical key can fetch its bytes
// without knowing which node measured it. The source verifies the
// artifact's checksums on read, so a corrupted artifact is quarantined
// server-side and answers 404 here: peers never receive bytes the store
// cannot vouch for. Malformed hashes answer 400.
func ArtifactHandler(src ArtifactSource) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := hex.DecodeString(r.PathValue("keyhash"))
		if err != nil || len(raw) != 32 {
			request.WriteError(w, request.Errorf(http.StatusBadRequest, "invalid_keyhash",
				"keyhash must be 64 hex characters (SHA-256 of the canonical key)"))
			return
		}
		var h [32]byte
		copy(h[:], raw)
		payload, ok := src.GetByHash(h)
		if !ok {
			request.WriteError(w, request.Errorf(http.StatusNotFound, "unknown_artifact",
				"no verifiable artifact under %s", r.PathValue("keyhash")))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		w.Write(payload)
	}
}

// RemoteBackend is a read-through core.TraceBackend over a peer's
// artifact fetch endpoint: GetTrace fetches the encoded trace stored
// under the key's canonical content address on the peer (typically the
// coordinator, which accumulates artifacts from solo runs and local
// fallbacks), and PutTrace is a no-op — durability stays local to the
// node that measured; peers pull, they are never pushed to. Payloads
// are size-capped on read and then flow through the trace decoders'
// hardening caps like any other untrusted bytes.
type RemoteBackend struct {
	base     string // peer base URL
	client   *http.Client
	maxBytes int64
}

// NewRemoteBackend returns a backend fetching from the peer at base,
// each fetch bounded by callTimeout. maxBytes caps one fetched payload
// (≤ 0 selects 256 MiB).
func NewRemoteBackend(base string, maxBytes int64) *RemoteBackend {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &RemoteBackend{base: base, client: &http.Client{}, maxBytes: maxBytes}
}

// GetTrace fetches the encoded trace under key's canonical address for
// format. Any failure — network, status, size — is a miss: the caller
// re-measures, which is always correct, just slower.
func (rb *RemoteBackend) GetTrace(key core.CacheKey, format trace.Format) ([]byte, bool) {
	h := sha256.Sum256([]byte(key.CanonicalFormat(format)))
	url := rb.base + "/v1/internal/artifacts/" + hex.EncodeToString(h[:])
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	resp, err := rb.client.Do(req.WithContext(ctx))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, rb.maxBytes+1))
	if err != nil || int64(len(payload)) > rb.maxBytes {
		return nil, false
	}
	return payload, true
}

// PutTrace is a no-op: see the type comment.
func (rb *RemoteBackend) PutTrace(core.CacheKey, trace.Format, []byte) {}

// ChainBackend layers a local durable tier in front of a remote one:
// Get consults local first (disk beats network), then remote — writing
// a remote hit through to local so the next restart serves it from
// disk. Put goes to local only.
type ChainBackend struct {
	Local  core.TraceBackend
	Remote core.TraceBackend
}

// GetTrace consults Local, then Remote (writing hits through to Local).
func (cb *ChainBackend) GetTrace(key core.CacheKey, format trace.Format) ([]byte, bool) {
	if enc, ok := cb.Local.GetTrace(key, format); ok {
		return enc, true
	}
	if enc, ok := cb.Remote.GetTrace(key, format); ok {
		cb.Local.PutTrace(key, format, enc)
		return enc, true
	}
	return nil, false
}

// PutTrace persists locally.
func (cb *ChainBackend) PutTrace(key core.CacheKey, format trace.Format, enc []byte) {
	cb.Local.PutTrace(key, format, enc)
}
