package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Artifact-protocol wire details, shared by the peer client and the
// handler.
const (
	// SchemaHeader carries the sender's key schema on every request
	// and response; a node that sees a different schema refuses the
	// exchange (412 on the server, a miss on the client) so
	// mixed-version clusters never trade stale entries.
	SchemaHeader = "X-Hb-Key-Schema"
	// ArtifactPath is the prefix every node mounts its store under.
	ArtifactPath = "/artifact/"
	// maxArtifactBytes bounds a fetched envelope: engine metrics are
	// a few KB; anything near this limit is garbage, not an artifact.
	maxArtifactBytes = 16 << 20
)

// PeerOpts tunes the peer-store client beyond the NewPeer defaults.
type PeerOpts struct {
	// Replicas is R, the number of peers (in rendezvous order) that
	// should hold each key: Put fans out to the top R, and read-repair
	// pushes a deep hit back to the missed replicas ahead of it. 0 or
	// 1 means single-copy (the pre-replication behavior).
	Replicas int
	// OpTimeout bounds each single peer round-trip, derived from —
	// never exceeding — the caller's context. 0 leaves attempts
	// bounded only by the caller's deadline and the client timeout. A
	// per-op bound keeps one hung peer from eating the whole budget
	// that the remaining replicas could have served within.
	OpTimeout time.Duration
	// ReadRepair re-PUTs a verified hit found on a lower-ranked
	// replica onto the higher-ranked replicas that missed, healing
	// under-replication on the read path.
	ReadRepair bool
}

// Peer is the HTTP client side of the artifact protocol: a read
// (-through) and write (-back) view of one or more remote stores.
// Reads try peers in rendezvous order for the key and stop at the
// first verified hit, optionally repairing earlier-ranked replicas
// that missed; writes fan out to the key's top-R rendezvous replicas
// and succeed if any copy lands. Every fetched envelope is
// re-verified locally — schema, key, and recomputed payload SHA-256 —
// so a byzantine or bit-rotted peer degrades to a miss, never a
// poisoned cache.
type Peer struct {
	name   string
	bases  []string
	schema int
	client *http.Client
	opts   PeerOpts
	// live, when set, replaces the static base list with sets derived
	// from the cluster membership view (see SetMembership).
	live atomic.Pointer[membership]
	counters
}

// membership is the dynamically derived peer topology: read is the
// Get-walk candidate set (every serving member), own is the Put
// fan-out ranking set (replica owners only — joining members are
// excluded until warmed).
type membership struct {
	read []string
	own  []string
}

// NewPeerWith builds a peer-store client over the given base URLs
// (scheme://host:port, no trailing slash needed) with explicit
// replication options; the zero PeerOpts is a single-copy client.
// name labels the tier in Stats.
func NewPeerWith(name string, schema int, bases []string, client *http.Client, opts PeerOpts) *Peer {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	cleaned := cleanBases(bases)
	if name == "" {
		name = "peer"
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	return &Peer{name: name, bases: cleaned, schema: schema, client: client, opts: opts}
}

// Bases returns the configured peer base URLs (cleaned). The
// anti-entropy sweeper walks these to place repairs when no live
// membership view has been installed.
func (p *Peer) Bases() []string {
	out := make([]string, len(p.bases))
	copy(out, p.bases)
	return out
}

// SetMembership installs live peer sets derived from the cluster
// view, replacing the static flag list: read is the Get-walk
// candidate set (serving members), own is the Put fan-out ranking
// set (replica owners). Both should already exclude this node.
// Callers re-invoke on every view change; the swap is atomic and
// in-flight operations keep the set they started with.
func (p *Peer) SetMembership(read, own []string) {
	p.live.Store(&membership{read: cleanBases(read), own: cleanBases(own)})
}

// readBases is the Get-walk candidate set: the live view when one is
// installed, else the static flag list.
func (p *Peer) readBases() []string {
	if m := p.live.Load(); m != nil {
		return m.read
	}
	return p.bases
}

// ownBases is the Put fan-out ranking set.
func (p *Peer) ownBases() []string {
	if m := p.live.Load(); m != nil {
		return m.own
	}
	return p.bases
}

func cleanBases(bases []string) []string {
	cleaned := make([]string, 0, len(bases))
	for _, b := range bases {
		for len(b) > 0 && b[len(b)-1] == '/' {
			b = b[:len(b)-1]
		}
		if b != "" {
			cleaned = append(cleaned, b)
		}
	}
	return cleaned
}

// Replicas returns the configured replication factor R.
func (p *Peer) Replicas() int { return p.opts.Replicas }

// opCtx derives the per-attempt context: the caller's context, capped
// at OpTimeout when one is configured.
func (p *Peer) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.opts.OpTimeout > 0 {
		return context.WithTimeout(ctx, p.opts.OpTimeout)
	}
	return context.WithCancel(ctx)
}

// Get fetches and verifies key from the peers in rendezvous order.
// Transport failures, 404s, schema refusals, and verification
// failures all continue to the next peer; exhausting the list is a
// miss. A verified hit found past replicas that missed is pushed back
// onto them (read-repair) when enabled.
func (p *Peer) Get(ctx context.Context, key string) ([]byte, bool, error) {
	p.gets.Add(1)
	bases := p.readBases()
	if !ValidKey(key) || len(bases) == 0 {
		p.misses.Add(1)
		return nil, false, nil
	}
	ranked := Rank(key, bases)
	var lastErr error
	for i, base := range ranked {
		payload, err := p.getAt(ctx, base, key)
		if err == nil && payload != nil {
			p.hits.Add(1)
			if p.opts.ReadRepair && i > 0 {
				p.repair(ctx, ranked[:min(i, p.opts.Replicas)], key, payload)
			}
			return payload, true, nil
		}
		if err != nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			break // the caller is gone; stop probing peers
		}
	}
	p.misses.Add(1)
	return nil, false, lastErr
}

// getAt fetches and verifies key from one peer. A (nil, nil) return
// is a clean miss (404, schema refusal, failed verification — all
// already counted); an error is environmental.
func (p *Peer) getAt(ctx context.Context, base, key string) ([]byte, error) {
	octx, cancel := p.opCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(octx, http.MethodGet, base+ArtifactPath+key, nil)
	if err != nil {
		p.errs.Add(1)
		return nil, err
	}
	req.Header.Set(SchemaHeader, strconv.Itoa(p.schema))
	resp, err := p.client.Do(req)
	if err != nil {
		p.errs.Add(1)
		return nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
	resp.Body.Close()
	switch {
	case err != nil:
		p.errs.Add(1)
		return nil, err
	case resp.StatusCode == http.StatusNotFound:
		return nil, nil
	case resp.StatusCode == http.StatusPreconditionFailed:
		p.schemaRej.Add(1)
		return nil, nil
	case resp.StatusCode != http.StatusOK:
		p.errs.Add(1)
		return nil, fmt.Errorf("store: peer %s: status %d", base, resp.StatusCode)
	}
	payload, err := Open(p.schema, key, raw)
	if err != nil {
		// A peer that serves bytes failing verification is worse
		// than a miss — record which way it failed and move on.
		p.counters.classify(err)
		return nil, nil
	}
	return payload, nil
}

// repair pushes a verified payload back onto the higher-ranked
// replicas that missed it. Best-effort and synchronous: the caller
// already paid a deep read; one PUT per healed replica is the price
// of not paying it again, and failures just leave the key for the
// anti-entropy sweep.
func (p *Peer) repair(ctx context.Context, targets []string, key string, payload []byte) {
	for _, base := range targets {
		if ctx.Err() != nil {
			return
		}
		if err := p.PutAt(ctx, base, key, payload); err == nil {
			p.readRepairs.Add(1)
		}
	}
}

// Put seals the payload and PUTs it to the key's top-R rendezvous
// replicas. The write succeeds if any copy lands; the error reports
// the last failure only when every replica refused. Callers in
// write-back tiers treat failures as best-effort.
func (p *Peer) Put(ctx context.Context, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	bases := p.ownBases()
	if len(bases) == 0 {
		return nil
	}
	ranked := Rank(key, bases)
	if len(ranked) > p.opts.Replicas {
		ranked = ranked[:p.opts.Replicas]
	}
	var lastErr error
	landed := 0
	for _, base := range ranked {
		if err := p.PutAt(ctx, base, key, payload); err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		landed++
	}
	if landed == 0 {
		return lastErr
	}
	p.puts.Add(1)
	return nil
}

// PutAt seals and PUTs the payload to one specific peer. The
// anti-entropy sweeper uses it to place repairs on exactly the
// replica that is missing a copy.
func (p *Peer) PutAt(ctx context.Context, base, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	raw, err := Seal(p.schema, key, payload)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	octx, cancel := p.opCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(octx, http.MethodPut, base+ArtifactPath+key, bytes.NewReader(raw))
	if err != nil {
		p.errs.Add(1)
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(SchemaHeader, strconv.Itoa(p.schema))
	resp, err := p.client.Do(req)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		p.errs.Add(1)
		return fmt.Errorf("store: peer %s: put status %d", base, resp.StatusCode)
	}
	return nil
}

// HasAt reports whether one specific peer holds key, via a HEAD
// probe. Environmental failures return an error so the sweeper can
// tell "replica is missing the key" from "replica is unreachable"
// (repairing onto an unreachable node is wasted work; counting it
// as missing would distort the replication histogram).
func (p *Peer) HasAt(ctx context.Context, base, key string) (bool, error) {
	if !ValidKey(key) {
		return false, fmt.Errorf("store: invalid key %q", key)
	}
	octx, cancel := p.opCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(octx, http.MethodHead, base+ArtifactPath+key, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(SchemaHeader, strconv.Itoa(p.schema))
	resp, err := p.client.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return true, nil
	case http.StatusNotFound, http.StatusPreconditionFailed:
		return false, nil
	default:
		return false, fmt.Errorf("store: peer %s: head status %d", base, resp.StatusCode)
	}
}

// Stat snapshots the counters.
func (p *Peer) Stat(ctx context.Context) (Stats, error) {
	return p.counters.snapshot(p.name), nil
}

// Close closes idle transport connections.
func (p *Peer) Close() error {
	p.client.CloseIdleConnections()
	return nil
}
