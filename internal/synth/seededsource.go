package synth

import "math/rand"

// seededSource is a rand.Source whose stream is bit-for-bit the stream of
// rand.NewSource(seed), without seeding math/rand's 607-word register up
// front. Seeding that register costs 1 841 Lehmer steps and a 4.9 KB
// allocation, while a single NormFloat64 almost always reads two of its
// words.
//
// math/rand's generator is an additive lagged-Fibonacci register vec, with
// draw k (1-based, k <= 273) returning vec[334-k] + vec[607-k] as they were
// seeded. Seeding sets word i to (x1<<40) ^ (x2<<20) ^ x3 ^ rngCooked[i],
// where xj = s·48271^(20+3i+j) mod (2^31-1) and s is the seed reduced mod
// 2^31-1 (0 becomes 89482311). So each of the first seededDraws draws costs
// six modular multiplies against multipliers computed once. Past them the
// source becomes rand.NewSource(seed) advanced as many draws, which keeps
// the stream exact for the rare caller (a ziggurat tail) that reads on.
type seededSource struct {
	seed    int64       // the seed as given, for the fallback
	reduced uint64      // the seed reduced as math/rand reduces it
	draws   int         // values returned so far
	full    rand.Source // the fallback; nil for the first seededDraws draws
}

const (
	// seededDraws is the number of draws served without seeding the
	// register.
	seededDraws = 16
	lehmerMod   = 1<<31 - 1 // math/rand's int32max
	lehmerMul   = 48271
	rngLen      = 607
	rngTap      = 273
	rngMask     = 1<<63 - 1
)

// seededWord is what a lazily derived register word needs besides the seed.
type seededWord struct {
	cooked int64     // rngCooked[i]
	mul    [3]uint64 // 48271^(20+3i+j) mod (2^31-1), j = 1..3
}

// feedWords[n] and tapWords[n] are register words 318+n and 591+n, the two
// words draw seededDraws-n reads.
var (
	feedWords = seededWords(rngLen-rngTap-seededDraws, &cookedFeed)
	tapWords  = seededWords(rngLen-seededDraws, &cookedTap)
)

// The two runs of math/rand's rngCooked the first seededDraws draws read:
// entries 318–333 and 591–606 of the table in $GOROOT/src/math/rand/rng.go.
//
// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
var (
	cookedFeed = [seededDraws]int64{
		-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871,
		-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521,
		581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
		220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
	}
	cookedTap = [seededDraws]int64{
		-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350,
		-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108,
		-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
		-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
	}
)

// seededWords derives the Lehmer multipliers of register words first,
// first+1, … from their cooked constants.
func seededWords(first int, cooked *[seededDraws]int64) [seededDraws]seededWord {
	// 48271^(20+3·first) mod (2^31-1): the multiplier just before word
	// first's x1.
	pow := uint64(1)
	for range 20 + 3*first {
		pow = pow * lehmerMul % lehmerMod
	}
	var words [seededDraws]seededWord
	for n := range words {
		words[n].cooked = cooked[n]
		for j := range words[n].mul {
			pow = pow * lehmerMul % lehmerMod
			words[n].mul[j] = pow
		}
	}
	return words
}

// newSeededSource returns a source with the stream of rand.NewSource(seed).
func newSeededSource(seed int64) *seededSource {
	s := new(seededSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source, reducing the seed as math/rand does.
func (s *seededSource) Seed(seed int64) {
	reduced := seed % lehmerMod
	if reduced < 0 {
		reduced += lehmerMod
	}
	if reduced == 0 {
		reduced = 89482311
	}
	*s = seededSource{seed: seed, reduced: uint64(reduced)}
}

// Int63 implements rand.Source.
func (s *seededSource) Int63() int64 {
	if s.full != nil {
		return s.full.Int63()
	}
	if s.draws == seededDraws {
		s.full = rand.NewSource(s.seed)
		for range seededDraws {
			s.full.Int63()
		}
		return s.full.Int63()
	}
	s.draws++
	n := seededDraws - s.draws
	return (s.word(&feedWords[n]) + s.word(&tapWords[n])) & rngMask
}

// word returns the seeded value of one register word.
func (s *seededSource) word(w *seededWord) int64 {
	x1 := s.reduced * w.mul[0] % lehmerMod
	x2 := s.reduced * w.mul[1] % lehmerMod
	x3 := s.reduced * w.mul[2] % lehmerMod
	return int64(x1<<40^x2<<20^x3) ^ w.cooked
}
