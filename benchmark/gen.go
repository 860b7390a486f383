package main

import (
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Seeded input generators. The seed reaches nothing but these: the
// program under test only ever sees the ops, keys, values and arrival
// times they produce, and the same seed reproduces them byte for byte.

// keyTableSize is the keyspace of every KV workload (sim.KeyTable).
const keyTableSize = 10000

// fillerLen is the size of the seeded block values take their filler
// from; it only has to exceed the largest value size.
const fillerLen = 1 << 16

// valueGen builds self-certifying unique values: the value written by
// (client, seq) under key is
//
//	key|client|seq|filler
//
// padded to exactly size bytes with a slice of a seeded filler block
// whose offset is a function of (client, seq). No two ops share a
// value, so the storage layer's last-value digest and signature memos
// see the hit rate of a real deployment, and check can re-derive the
// whole value from its header — a returned value that was never
// written for that key does not survive the comparison.
type valueGen struct {
	filler string
}

func newValueGen(seed int64) *valueGen {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	b := make([]byte, fillerLen)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return &valueGen{filler: string(b)}
}

// value returns the size-byte value of op seq of client under key.
func (g *valueGen) value(key string, client, seq, size int) string {
	var hdr [48]byte
	h := append(hdr[:0], key...)
	h = append(h, '|')
	h = strconv.AppendInt(h, int64(client), 10)
	h = append(h, '|')
	h = strconv.AppendInt(h, int64(seq), 10)
	h = append(h, '|')
	n := size - len(h)
	if n < 0 {
		n = 0
	}
	off := int((uint64(client)*0x9e3779b97f4a7c15 + uint64(seq)*0xbf58476d1ce4e5b9) % uint64(fillerLen-n))
	return string(h) + g.filler[off:off+n]
}

// check reports whether val is a value this generator produced for key
// at the given size.
func (g *valueGen) check(key, val string, size int) bool {
	parts := strings.SplitN(val, "|", 4)
	if len(parts) != 4 || parts[0] != key {
		return false
	}
	client, err1 := strconv.Atoi(parts[1])
	seq, err2 := strconv.Atoi(parts[2])
	return err1 == nil && err2 == nil && g.value(key, client, seq, size) == val
}

// opKind is one operation of the KV mix.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opCAS
)

// kvOp is one generated operation; val is set for Put and CAS.
type kvOp struct {
	kind opKind
	key  string
	val  string
}

// opMix is a Get/Put/CAS split in percent (CAS takes the remainder).
type opMix struct {
	get, put int
	// zipfGets draws Get keys zipf(s=1.2) over the table; every other
	// key is uniform.
	zipfGets bool
}

// opGen is one client's deterministic op stream. Not safe for
// concurrent use: every logical client owns one.
type opGen struct {
	client    int
	mix       opMix
	valueSize int
	kinds     *rand.Rand
	zipf, uni sim.KeyGen
	values    *valueGen
	seq       int
}

// newOpGen derives client's stream from the run seed. The kind, zipf
// and uniform draws use separate sources, so changing the mix does not
// shift the key sequences.
func newOpGen(seed int64, client int, mix opMix, valueSize int, table []string, values *valueGen) *opGen {
	s := seed*1000003 + int64(client)*7919
	return &opGen{
		client:    client,
		mix:       mix,
		valueSize: valueSize,
		kinds:     rand.New(rand.NewSource(s)),
		zipf:      sim.NewZipfKeys(s+1, 1.2, table),
		uni:       sim.NewUniformKeys(s+2, table),
		values:    values,
	}
}

func (g *opGen) next() kvOp {
	g.seq++
	p := g.kinds.Intn(100)
	switch {
	case p < g.mix.get:
		if g.mix.zipfGets {
			return kvOp{kind: opGet, key: g.zipf()}
		}
		return kvOp{kind: opGet, key: g.uni()}
	case p < g.mix.get+g.mix.put:
		key := g.uni()
		return kvOp{kind: opPut, key: key, val: g.values.value(key, g.client, g.seq, g.valueSize)}
	default:
		key := g.uni()
		return kvOp{kind: opCAS, key: key, val: g.values.value(key, g.client, g.seq, g.valueSize)}
	}
}

// poissonArrivals returns the intended send offsets of a Poisson
// process of the given rate over [0, dur): exponential gaps from a
// seeded source.
func poissonArrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}
