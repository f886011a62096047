package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"

	"repro/internal/optimizer"
	"repro/internal/share"
)

// This file implements the cross-campaign sharing tier: campaigns created
// into one ShareGroup adopt each other's planning decisions when their
// planning inputs are identical, and draw path workspaces from a bounded
// shared pool instead of holding private ones per campaign. Nothing else is
// shared: each campaign keeps its own environment, space instance and
// unit-price cache.
//
// Correctness rests on one rule: everything shared is either immutable after
// publication or keyed by EVERY input that influences the shared value. The
// decision cache key captures (space digest, params digest, seed, iteration,
// constraint set, full trial history, quarantine set, candidate ID set,
// remaining budget, every candidate's unit price) — everything nextConfig
// reads (the planner is a pure function of these; the worker-count
// independence and golden tests pin that scheduling never affects the
// outcome). Equal keys therefore imply bitwise-equal outcomes, which is why
// adopting a cached decision preserves the "identical to isolated run"
// contract.
//
// Decision sharing is disabled per planner whenever an input cannot be
// captured in the key: a SetupCost function (process-local closure) or a
// custom ModelFactory (identified only by name, which two distinct
// implementations could share). Such campaigns still use the workspace pool.

// sharedDecisionCacheEntries bounds the decision cache. Decisions are two
// ints, so the bound exists to cap key retention, not value memory.
const sharedDecisionCacheEntries = 512

// ShareGroup is the shared state of a set of campaigns: the decision cache
// and the workspace pool. Create one group per co-scheduled batch and pass it
// to NewCampaign / ResumeCampaign. All methods and the campaigns created into
// one group are safe for concurrent use. The group holds no reference to any
// campaign, environment or space — only 32-byte decision keys and, per
// workspace shape, at most the pool limit of shelved workspaces — so dropping
// a campaign frees it.
type ShareGroup struct {
	decisions  *share.Cache[sharedDecision]
	workspaces *workspacePool
}

// NewShareGroup creates an empty share group.
func NewShareGroup() *ShareGroup {
	return &ShareGroup{
		decisions:  share.NewCache[sharedDecision](sharedDecisionCacheEntries),
		workspaces: newWorkspacePool(2*runtime.GOMAXPROCS(0) + 2),
	}
}

// sharedDecision is one published planning decision: the selected
// configuration ID, or ok=false when no eligible candidate fit the budget
// (itself a cacheable outcome — every replica campaign ends the same way).
type sharedDecision struct {
	id int
	ok bool
}

// sharable reports whether this planner's decisions may be published to and
// adopted from the group caches: every planning input must be capturable in
// the cache key. A process-local function (SetupCost) or a custom model
// factory, identified only by name, is an input the key cannot trust, so
// either opts the planner out of decision sharing.
func (p *planner) sharable() bool {
	return p.shared != nil && p.opts.SetupCost == nil && p.params.ModelFactory == nil
}

// decisionKey computes the decision-cache key of an opened decision: a SHA-256
// sum, returned as a raw 32-byte string, over everything planning it reads.
// Unit prices are part of it because they come from the environment: two
// campaigns on different environment instances share a decision only when
// their prices agree bit for bit.
func (p *planner) decisionKey(h *optimizer.History, d *decision) string {
	untested := d.root.untested
	buf := p.keyBuf[:0]
	buf = appendKeyStr(buf, "lynceus/share/v1")
	buf = appendKeyStr(buf, p.space.Digest())
	buf = appendKeyStr(buf, paramsDigest(p.params))
	buf = appendKeyU64(buf, uint64(p.opts.Seed))
	buf = appendKeyU64(buf, uint64(p.iteration))
	buf = appendKeyF64(buf, p.opts.MaxRuntimeSeconds)
	buf = appendKeyU64(buf, uint64(len(p.extraNames)))
	for k, name := range p.extraNames {
		buf = appendKeyStr(buf, name)
		buf = appendKeyF64(buf, p.extraMax[k])
	}
	trials := h.Trials()
	buf = appendKeyU64(buf, uint64(len(trials)))
	for i := range trials {
		tr := &trials[i]
		buf = appendKeyU64(buf, uint64(tr.Config.ID))
		buf = appendKeyF64(buf, tr.Cost)
		buf = appendKeyF64(buf, tr.RuntimeSeconds)
		if tr.TimedOut {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, name := range p.extraNames {
			buf = appendKeyF64(buf, tr.Extra[name])
		}
	}
	quarantined := h.QuarantinedIDs()
	buf = appendKeyU64(buf, uint64(len(quarantined)))
	for _, id := range quarantined {
		buf = appendKeyU64(buf, uint64(id))
	}
	buf = appendKeyU64(buf, uint64(len(untested)))
	for i := range untested {
		buf = appendKeyU64(buf, uint64(untested[i].id))
	}
	buf = appendKeyStr(buf, "decision")
	buf = appendKeyF64(buf, d.root.budget)
	for i := range untested {
		buf = appendKeyF64(buf, untested[i].unitPriceHour)
	}
	sum := sha256.Sum256(buf)

	p.keyBuf = buf[:0]
	return string(sum[:])
}

func appendKeyU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendKeyF64(buf []byte, v float64) []byte {
	return appendKeyU64(buf, math.Float64bits(v))
}

func appendKeyStr(buf []byte, s string) []byte {
	buf = appendKeyU64(buf, uint64(len(s)))
	return append(buf, s...)
}
