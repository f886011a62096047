package configspace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest returns a content hash identifying the space: two spaces with equal
// digests contain the same configurations — same dimensions (names, values,
// labels), same representation (materialized vs streaming), and same filter
// effect — in the same ID order, so every ID-keyed artifact derived from one
// (feature rows, column matrices, prediction memos) is valid for the other.
// The cross-campaign decision cache keys on it (core's decisionKey), which is
// what lets campaigns on distinct, content-equal Space instances adopt each
// other's decisions.
//
// Materialized and streaming spaces hash differently even when they hold the
// same configurations: consumers of a materialized space may rely on
// FeatureColumns and Configs, which streaming spaces do not provide, so the
// two representations must never be taken for each other.
//
// The digest is computed lazily on first call and memoized; Spaces are
// immutable after construction, so concurrent calls are safe.
func (s *Space) Digest() string {
	s.digestOnce.Do(func() { s.digestHex = s.computeDigest() })
	return s.digestHex
}

func (s *Space) computeDigest() string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr := func(str string) {
		writeU64(uint64(len(str)))
		h.Write([]byte(str))
	}

	if s.streaming {
		writeStr("configspace-v1/streaming")
	} else {
		writeStr("configspace-v1/materialized")
	}

	writeU64(uint64(len(s.dims)))
	for _, d := range s.dims {
		writeStr(d.Name)
		writeU64(uint64(len(d.Values)))
		for _, v := range d.Values {
			writeU64(math.Float64bits(v))
		}
		writeU64(uint64(len(d.Labels)))
		for _, l := range d.Labels {
			writeStr(l)
		}
	}

	// Filter effect: the set of cross-product points kept. The unfiltered
	// space hashes a marker only; filtered spaces hash every surviving flat
	// index (bounded by MaxMaterializedSize for materialized spaces and by
	// the accepted list's own size for streaming ones).
	product := 1
	for _, d := range s.dims {
		product *= len(d.Values)
	}
	switch {
	case s.streaming && s.accepted == nil, !s.streaming && s.total == product:
		writeStr("unfiltered")
	case s.streaming:
		writeStr("filtered")
		writeU64(uint64(len(s.accepted)))
		for _, flat := range s.accepted {
			writeU64(uint64(flat))
		}
	default:
		writeStr("filtered")
		writeU64(uint64(len(s.configs)))
		strides := dimStrides(s.dims)
		for _, cfg := range s.configs {
			flat := 0
			for d, idx := range cfg.Indices {
				flat += idx * strides[d]
			}
			writeU64(uint64(flat))
		}
	}

	return hex.EncodeToString(h.Sum(nil))
}
