package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// This file is the TCP wire format: a length-prefixed frame layer and a
// compact self-describing envelope codec that replaces the seed's
// per-connection gob streams.
//
//	frame    := u32le bodyLen | body                 (bodyLen ≤ maxFrame)
//	body     := kind byte | rest
//	hello    := uvarint nonce | uvarint firstSeq | uvarint addrLen | addr
//	data     := u64le seq | envelope
//	ack      := uvarint cumulativeSeq
//	ping     := (empty)                              keepalive probe
//	pong     := (empty)                              keepalive reply
//	envelope := varint from | varint to | varint hop | u32le typeTag | payload
//
// The hello identifies the dialing *process* (its listen address and
// session incarnation nonce), not a logical node: one session carries
// every logical (from, to) pair between two processes, and the
// envelope's own routing header does the demultiplexing.
//
// Payload encodings are compiled once per registered type from its
// reflection structure: varints for integers, length-prefixed bytes for
// strings and slices, fields in declaration order for structs. Unlike
// gob there is no per-connection type negotiation, no field-name
// dictionary and no allocation beyond the decoded value itself — the
// type tag (an FNV-1a hash of the type's full name, stable across
// processes and registration orders) is the whole type description.

// Frame kinds of the link protocol (see link.go).
const (
	frameHello   byte = 1 // sender session identity + first seq on this conn
	frameData    byte = 2 // one sequenced envelope
	frameAck     byte = 3 // cumulative delivery acknowledgement
	frameDataAck byte = 4 // data frame carrying a piggybacked cumulative ack
	framePing    byte = 5 // keepalive probe on an idle session
	framePong    byte = 6 // keepalive reply
)

// dataSeqOff is the data frame's seq slot offset (past the length
// prefix and kind byte). The seq is fixed-width so senders can encode
// the envelope into the frame buffer first and assign the seq under
// the link lock afterwards, without re-copying the payload.
const dataSeqOff = 5

// A dataAck frame extends the data layout with two fixed-width slots
// between the seq and the envelope:
//
//	dataAck := u64le seq | u64le ackNonce | u64le ack | envelope
//
// ackNonce identifies the reverse-direction stream being acked (the
// receiver's link incarnation nonce); ack is this node's cumulative
// delivered seq for that stream. Both are patched at write time, so a
// retransmitted frame always carries the current ack — piggybacking
// makes standalone ack frames unnecessary while data flows both ways.
const (
	dataAckNonceOff = dataSeqOff + 8
	dataAckOff      = dataAckNonceOff + 8
	dataAckEnvOff   = dataAckOff + 8 // envelope offset within the whole frame
)

// maxFrame bounds a frame body; a longer length prefix means a corrupt
// or hostile stream and kills the connection.
const maxFrame = 64 << 20

var (
	errShortFrame   = errors.New("transport: truncated frame")
	errNonCanonical = errors.New("transport: non-canonical encoding")
)

// canonicalVarint reports whether the n-byte varint at the start of b
// (n > 0, from binary.Uvarint or Varint) is in its shortest form. A
// longer form ends in a zero byte; accepting it would let two byte
// strings decode to one value.
func canonicalVarint(b []byte, n int) bool {
	return n == 1 || b[n-1] != 0
}

// encFn appends the value's encoding to b; decFn decodes a value into v
// (settable) and returns the remaining bytes.
type encFn func(b []byte, v reflect.Value) []byte
type decFn func(b []byte, v reflect.Value) ([]byte, error)

type typeCodec struct {
	typ  reflect.Type
	tag  uint32
	name string
	enc  encFn
	dec  decFn
	// decA is the aliasing variant of dec: string and []byte leaves
	// reference the input buffer instead of copying out of it. Only the
	// arena receive path uses it; the buffer must outlive the decoded
	// value (the arena guarantees this via its reference count).
	decA decFn
	// rtype is the runtime type word an interface holding this type
	// carries, captured once at Register so the arena decode path can
	// box a slab-backed value as a Message without the allocation
	// v.Interface() would make. indirect reports whether the interface
	// data word is a pointer to the value (always true for types wider
	// than a word); only then is direct eface packing legal.
	rtype    unsafe.Pointer
	indirect bool
}

// eface mirrors the runtime's interface{} layout; used to box arena
// slab values without allocating.
type eface struct {
	typ, data unsafe.Pointer
}

var registry struct {
	sync.RWMutex
	byTag  map[uint32]*typeCodec
	byType map[reflect.Type]*typeCodec
}

// Register makes a concrete payload type encodable over the TCP
// transport, compiling its binary codec and assigning it a stable type
// tag. Protocol packages call this for each of their message types.
// Registering the same type twice is a no-op; a tag collision between
// two distinct types panics (pick a different type name).
func Register(v Message) {
	if v == nil {
		panic("transport: Register(nil)")
	}
	t := reflect.TypeOf(v)
	registry.Lock()
	defer registry.Unlock()
	if registry.byType == nil {
		registry.byTag = make(map[uint32]*typeCodec)
		registry.byType = make(map[reflect.Type]*typeCodec)
	}
	if _, ok := registry.byType[t]; ok {
		return
	}
	name := wireTypeName(t)
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	tag := h.Sum32()
	if tag == 0 {
		tag = 1 // 0 is the nil-payload tag
	}
	if prev, ok := registry.byTag[tag]; ok {
		panic(fmt.Sprintf("transport: type tag collision between %s and %s", prev.name, name))
	}
	tc := &typeCodec{typ: t, tag: tag, name: name}
	tc.enc, tc.dec, tc.decA = compileCodec(t, make(map[reflect.Type]*typeCodec))
	// Capture the runtime type word from a boxed zero value. Direct
	// (pointer-shaped, word-sized) types keep indirect=false and fall
	// back to v.Interface() when boxed from a slab.
	box := Message(reflect.New(t).Elem().Interface())
	tc.rtype = (*eface)(unsafe.Pointer(&box)).typ
	tc.indirect = t.Size() > unsafe.Sizeof(uintptr(0))
	registry.byTag[tag] = tc
	registry.byType[t] = tc
}

func wireTypeName(t reflect.Type) string {
	if t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	if t.Name() != "" {
		return t.Name()
	}
	return t.String()
}

// compileCodec builds the encoder and the two decoders for t: dec
// copies every string and byte slice out of the input, decA lets them
// alias it (the arena path). seen breaks recursive types: a
// self-referential field dispatches through the placeholder filled in
// when the outer compilation finishes.
func compileCodec(t reflect.Type, seen map[reflect.Type]*typeCodec) (encFn, decFn, decFn) {
	if ph, ok := seen[t]; ok {
		return func(b []byte, v reflect.Value) []byte { return ph.enc(b, v) },
			func(b []byte, v reflect.Value) ([]byte, error) { return ph.dec(b, v) },
			func(b []byte, v reflect.Value) ([]byte, error) { return ph.decA(b, v) }
	}
	ph := &typeCodec{typ: t}
	seen[t] = ph

	var enc encFn
	var dec, decA decFn
	switch t.Kind() {
	case reflect.Bool:
		enc = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			if len(b) < 1 {
				return nil, errShortFrame
			}
			if b[0] > 1 {
				return nil, errNonCanonical
			}
			v.SetBool(b[0] == 1)
			return b[1:], nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		enc = func(b []byte, v reflect.Value) []byte {
			return binary.AppendVarint(b, v.Int())
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			x, n := binary.Varint(b)
			if n <= 0 {
				return nil, errShortFrame
			}
			if !canonicalVarint(b, n) {
				return nil, errNonCanonical
			}
			v.SetInt(x)
			return b[n:], nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		enc = func(b []byte, v reflect.Value) []byte {
			return binary.AppendUvarint(b, v.Uint())
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errShortFrame
			}
			if !canonicalVarint(b, n) {
				return nil, errNonCanonical
			}
			v.SetUint(x)
			return b[n:], nil
		}
	case reflect.Float32:
		enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			if len(b) < 4 {
				return nil, errShortFrame
			}
			v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
			return b[4:], nil
		}
	case reflect.Float64:
		enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			if len(b) < 8 {
				return nil, errShortFrame
			}
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			return b[8:], nil
		}
	case reflect.String:
		enc = func(b []byte, v reflect.Value) []byte {
			s := v.String()
			b = binary.AppendUvarint(b, uint64(len(s)))
			return append(b, s...)
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			n, b, err := decUvarint(b)
			if err != nil || n > uint64(len(b)) {
				return nil, errShortFrame
			}
			v.SetString(string(b[:n]))
			return b[n:], nil
		}
		decA = func(b []byte, v reflect.Value) ([]byte, error) {
			n, b, err := decUvarint(b)
			if err != nil || n > uint64(len(b)) {
				return nil, errShortFrame
			}
			if n > 0 {
				v.SetString(unsafe.String(&b[0], int(n)))
			}
			return b[n:], nil
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			enc = func(b []byte, v reflect.Value) []byte {
				b = binary.AppendUvarint(b, uint64(v.Len()))
				return append(b, v.Bytes()...)
			}
			dec = func(b []byte, v reflect.Value) ([]byte, error) {
				n, b, err := decUvarint(b)
				if err != nil || n > uint64(len(b)) {
					return nil, errShortFrame
				}
				if n > 0 {
					out := reflect.MakeSlice(t, int(n), int(n))
					reflect.Copy(out, reflect.ValueOf(b[:n]))
					v.Set(out)
				}
				return b[n:], nil
			}
			decA = func(b []byte, v reflect.Value) ([]byte, error) {
				n, b, err := decUvarint(b)
				if err != nil || n > uint64(len(b)) {
					return nil, errShortFrame
				}
				if n > 0 {
					// Full-capacity slice so a consumer append reallocates
					// instead of scribbling on the arena chunk.
					v.SetBytes(b[:n:n])
				}
				return b[n:], nil
			}
			break
		}
		elemEnc, elemDec, elemDecA := compileCodec(t.Elem(), seen)
		minElem := minEncodedSize(t.Elem())
		enc = func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = elemEnc(b, v.Index(i))
			}
			return b
		}
		mkDec := func(elem decFn) decFn {
			return func(b []byte, v reflect.Value) ([]byte, error) {
				n, b, err := decUvarint(b)
				if err != nil || n > maxFrame {
					return nil, errShortFrame
				}
				// A corrupt length must fail before the allocation, not
				// after: every element costs at least minElem bytes.
				if minElem > 0 && n > uint64(len(b))/uint64(minElem) {
					return nil, errShortFrame
				}
				if n == 0 {
					return b, nil // zero-length decodes as nil, like gob
				}
				out := reflect.MakeSlice(t, int(n), int(n))
				for i := 0; i < int(n); i++ {
					if b, err = elem(b, out.Index(i)); err != nil {
						return nil, err
					}
				}
				v.Set(out)
				return b, nil
			}
		}
		dec, decA = mkDec(elemDec), mkDec(elemDecA)
	case reflect.Array:
		elemEnc, elemDec, elemDecA := compileCodec(t.Elem(), seen)
		n := t.Len()
		enc = func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = elemEnc(b, v.Index(i))
			}
			return b
		}
		mkDec := func(elem decFn) decFn {
			return func(b []byte, v reflect.Value) ([]byte, error) {
				var err error
				for i := 0; i < n; i++ {
					if b, err = elem(b, v.Index(i)); err != nil {
						return nil, err
					}
				}
				return b, nil
			}
		}
		dec, decA = mkDec(elemDec), mkDec(elemDecA)
	case reflect.Map:
		keyEnc, keyDec, keyDecA := compileCodec(t.Key(), seen)
		valEnc, valDec, valDecA := compileCodec(t.Elem(), seen)
		minPair := minEncodedSize(t.Key()) + minEncodedSize(t.Elem())
		// Addressable key/value scratch, pooled per map type: SetMapIndex
		// copies out of it and SetIterKey/SetIterValue copy into it, so
		// one warm pair serves every entry of every map of this type —
		// the per-entry reflect.New (decode) and copyVal (encode-side
		// MapIter.Key/Value) allocations were the bulk of a History-map
		// ack's cost on the hot read path.
		scratch := &sync.Pool{New: func() any {
			return &mapKV{k: reflect.New(t.Key()).Elem(), v: reflect.New(t.Elem()).Elem()}
		}}
		enc = func(b []byte, v reflect.Value) []byte {
			b = binary.AppendUvarint(b, uint64(v.Len()))
			kv := scratch.Get().(*mapKV)
			it := v.MapRange()
			for it.Next() {
				kv.k.SetIterKey(it)
				kv.v.SetIterValue(it)
				b = keyEnc(b, kv.k)
				b = valEnc(b, kv.v)
			}
			kv.put(scratch)
			return b
		}
		mkDec := func(key, val decFn) decFn {
			return func(b []byte, v reflect.Value) ([]byte, error) {
				n, b, err := decUvarint(b)
				if err != nil || n > maxFrame {
					return nil, errShortFrame
				}
				if minPair > 0 && n > uint64(len(b))/uint64(minPair) {
					return nil, errShortFrame
				}
				if n == 0 {
					return b, nil
				}
				out := reflect.MakeMapWithSize(t, int(n))
				kv := scratch.Get().(*mapKV)
				for i := 0; i < int(n); i++ {
					kv.k.SetZero()
					kv.v.SetZero()
					if b, err = key(b, kv.k); err != nil {
						return nil, err
					}
					if b, err = val(b, kv.v); err != nil {
						return nil, err
					}
					out.SetMapIndex(kv.k, kv.v)
				}
				kv.put(scratch)
				v.Set(out)
				return b, nil
			}
		}
		dec, decA = mkDec(keyDec, valDec), mkDec(keyDecA, valDecA)
	case reflect.Struct:
		type fieldCodec struct {
			idx  int
			enc  encFn
			dec  decFn
			decA decFn
		}
		var fields []fieldCodec
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue // like gob: unexported fields don't travel
			}
			fe, fd, fdA := compileCodec(f.Type, seen)
			fields = append(fields, fieldCodec{idx: i, enc: fe, dec: fd, decA: fdA})
		}
		enc = func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.enc(b, v.Field(f.idx))
			}
			return b
		}
		dec = func(b []byte, v reflect.Value) ([]byte, error) {
			var err error
			for _, f := range fields {
				if b, err = f.dec(b, v.Field(f.idx)); err != nil {
					return nil, err
				}
			}
			return b, nil
		}
		decA = func(b []byte, v reflect.Value) ([]byte, error) {
			var err error
			for _, f := range fields {
				if b, err = f.decA(b, v.Field(f.idx)); err != nil {
					return nil, err
				}
			}
			return b, nil
		}
	default:
		panic(fmt.Sprintf("transport: cannot encode kind %s (type %s)", t.Kind(), t))
	}
	if decA == nil {
		decA = dec // scalar leaves never alias the input
	}
	ph.enc, ph.dec, ph.decA = enc, dec, decA
	return enc, dec, decA
}

// mapKV is the pooled addressable scratch of a map codec. put zeroes
// both values before pooling so the pool never retains decoded payload
// memory — in particular not arena-chunk pointers from the aliasing
// decode path, which would keep recycled (and poisoned) arenas
// reachable from entirely unrelated decodes. Error paths drop the pair
// on the floor instead; the pool replenishes itself.
type mapKV struct{ k, v reflect.Value }

func (kv *mapKV) put(p *sync.Pool) {
	kv.k.SetZero()
	kv.v.SetZero()
	p.Put(kv)
}

// minEncodedSize is the smallest number of bytes a value of type t can
// occupy on the wire — the bound that lets length-prefixed decoders
// reject a corrupt count before allocating for it. Zero only for types
// whose encoding can be empty (empty structs, zero-length arrays).
func minEncodedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Float32:
		return 4
	case reflect.Float64:
		return 8
	case reflect.Array:
		return t.Len() * minEncodedSize(t.Elem())
	case reflect.Struct:
		sum := 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				sum += minEncodedSize(f.Type)
			}
		}
		return sum
	default:
		return 1 // varints, bools, and length prefixes all take ≥ 1 byte
	}
}

// decUvarint reads a length or count: a uvarint in its shortest form.
func decUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortFrame
	}
	if !canonicalVarint(b, n) {
		return 0, nil, errNonCanonical
	}
	return x, b[n:], nil
}

// EncodeEnvelope appends env's wire encoding to b and returns the
// extended buffer; the payload type must have been registered. It is
// the codec behind the TCP transport, exported for benchmarks and for
// alternative transports built on the same wire format.
func EncodeEnvelope(b []byte, env Envelope) ([]byte, error) {
	return appendEnvelope(b, &env)
}

// DecodeEnvelope parses one envelope previously produced by
// EncodeEnvelope. The result does not alias b.
func DecodeEnvelope(b []byte) (Envelope, error) {
	return decodeEnvelope(b)
}

// EncodeMessage appends m's tagged wire encoding (type tag + payload,
// no routing header) to b. It is the serialization behind WAL records:
// durability layers reuse the transport's compiled codecs instead of
// inventing a second format. The type must have been registered.
func EncodeMessage(b []byte, m Message) ([]byte, error) {
	return appendTaggedPayload(b, m)
}

// DecodeMessage parses one message produced by EncodeMessage, which
// must span all of b. The result does not alias b.
func DecodeMessage(b []byte) (Message, error) {
	if len(b) < 4 {
		return nil, errShortFrame
	}
	tag := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if tag == 0 {
		return nil, nil
	}
	registry.RLock()
	tc := registry.byTag[tag]
	registry.RUnlock()
	if tc == nil {
		return nil, fmt.Errorf("transport: unknown payload type tag %#x", tag)
	}
	v := reflect.New(tc.typ).Elem()
	rest, err := tc.dec(b, v)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("transport: %d bytes after the %s payload", len(rest), tc.name)
	}
	return v.Interface(), nil
}

// appendEnvelope appends env's wire encoding. The payload type must be
// registered (nil payloads are legal and get tag 0).
func appendEnvelope(b []byte, env *Envelope) ([]byte, error) {
	b = binary.AppendVarint(b, int64(env.From))
	b = binary.AppendVarint(b, int64(env.To))
	b = binary.AppendVarint(b, int64(env.Hop))
	return appendTaggedPayload(b, env.Payload)
}

// appendTaggedPayload appends the type tag and payload encoding — the
// envelope minus its routing header. Broadcast encodes this once and
// reuses it across every destination's frame.
func appendTaggedPayload(b []byte, payload Message) ([]byte, error) {
	if payload == nil {
		return binary.LittleEndian.AppendUint32(b, 0), nil
	}
	registry.RLock()
	tc := registry.byType[reflect.TypeOf(payload)]
	registry.RUnlock()
	if tc == nil {
		return nil, fmt.Errorf("transport: payload type %T not registered", payload)
	}
	b = binary.LittleEndian.AppendUint32(b, tc.tag)
	return tc.enc(b, reflect.ValueOf(payload)), nil
}

// decodeEnvelope parses one envelope; strings and aggregates are copied
// out of b, so the caller may reuse the buffer.
func decodeEnvelope(b []byte) (Envelope, error) {
	var env Envelope
	var vals [3]int64
	for i := range vals {
		x, n := binary.Varint(b)
		if n <= 0 {
			return env, errShortFrame
		}
		vals[i], b = x, b[n:]
	}
	env.From, env.To, env.Hop = int(vals[0]), int(vals[1]), int(vals[2])
	if len(b) < 4 {
		return env, errShortFrame
	}
	tag := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if tag == 0 {
		return env, nil
	}
	registry.RLock()
	tc := registry.byTag[tag]
	registry.RUnlock()
	if tc == nil {
		return env, fmt.Errorf("transport: unknown payload type tag %#x", tag)
	}
	v := reflect.New(tc.typ).Elem()
	if _, err := tc.dec(b, v); err != nil {
		return env, err
	}
	env.Payload = v.Interface()
	return env, nil
}

// decodeEnvelopeArena parses one envelope whose payload lives in a's
// slabs and whose string/[]byte fields alias a's chunk (b must point
// into it). A successfully decoded non-nil payload takes one arena
// reference, carried by the returned envelope until Release.
func decodeEnvelopeArena(b []byte, a *recvArena) (Envelope, error) {
	var env Envelope
	var vals [3]int64
	for i := range vals {
		x, n := binary.Varint(b)
		if n <= 0 {
			return env, errShortFrame
		}
		vals[i], b = x, b[n:]
	}
	env.From, env.To, env.Hop = int(vals[0]), int(vals[1]), int(vals[2])
	if len(b) < 4 {
		return env, errShortFrame
	}
	tag := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if tag == 0 {
		return env, nil
	}
	registry.RLock()
	tc := registry.byTag[tag]
	registry.RUnlock()
	if tc == nil {
		return env, fmt.Errorf("transport: unknown payload type tag %#x", tag)
	}
	v := a.alloc(tc)
	if _, err := tc.decA(b, v); err != nil {
		// The slab element is dirty but unreferenced; it is zeroed when
		// the arena recycles.
		return env, err
	}
	if tc.indirect {
		// Box the slab element directly: the interface's data word
		// points into the slab array, which the arena keeps alive.
		var m Message
		e := (*eface)(unsafe.Pointer(&m))
		e.typ = tc.rtype
		e.data = v.Addr().UnsafePointer()
		env.Payload = m
	} else {
		env.Payload = v.Interface()
	}
	env.arena = a
	a.acquire()
	return env, nil
}

// Buffer pool shared by frame encoding and the read loops. The *[]byte
// headers are pooled separately from the arrays they point at:
// framePool.Put(&b) on a local would force the header to escape, so
// every putFrameBuf would allocate a header — recycling headers through
// a second pool makes the get/put cycle allocation-free once warm.
var (
	framePool    sync.Pool // *[]byte carrying a usable backing array
	frameHdrPool = sync.Pool{New: func() any { return new([]byte) }}
)

func getFrameBuf() []byte {
	p, _ := framePool.Get().(*[]byte)
	if p == nil {
		return make([]byte, 0, 512)
	}
	b := (*p)[:0]
	*p = nil
	frameHdrPool.Put(p)
	return b
}

func putFrameBuf(b []byte) {
	if cap(b) > maxFrame/64 {
		return // don't keep giants alive
	}
	p := frameHdrPool.Get().(*[]byte)
	*p = b
	framePool.Put(p)
}

// frameSlicePool recycles the [][]byte scratch used to stage a batch
// of encoded frames between encode and queue append, so burst sends
// allocate no per-batch slice header once warm. Same two-pool header
// recycling as framePool.
var (
	frameSlicePool    sync.Pool // *[][]byte carrying a usable backing array
	frameSliceHdrPool = sync.Pool{New: func() any { return new([][]byte) }}
)

func getFrameSlice() [][]byte {
	p, _ := frameSlicePool.Get().(*[][]byte)
	if p == nil {
		return make([][]byte, 0, 64)
	}
	s := (*p)[:0]
	*p = nil
	frameSliceHdrPool.Put(p)
	return s
}

func putFrameSlice(s [][]byte) {
	if cap(s) > 4096 {
		return
	}
	// Nil the full capacity, not just the length: callers may have
	// resliced to zero after handing frames off (broadcast's flushRun),
	// and stale pointers in the pooled backing array would retain
	// buffers the links already own or returned.
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil
	}
	p := frameSliceHdrPool.Get().(*[][]byte)
	*p = s[:0]
	frameSlicePool.Put(p)
}

// beginFrame appends the 4-byte length placeholder and the kind byte;
// finishFrame back-fills the length once the body is complete.
func beginFrame(b []byte, kind byte) []byte {
	return append(b, 0, 0, 0, 0, kind)
}

func finishFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b
}

// readFrame reads one frame into *scratch (grown as needed) and returns
// its kind and body. The length prefix is peeked out of the bufio
// buffer rather than read into a local array, which would escape into
// the io.ReadFull call and cost an allocation per frame.
func readFrame(br *bufio.Reader, scratch *[]byte) (byte, []byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	_, _ = br.Discard(4)
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if uint32(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// writeAck appends and flushes a cumulative ack frame.
func writeAck(bw *bufio.Writer, seq uint64) error {
	buf := getFrameBuf()
	buf = beginFrame(buf, frameAck)
	buf = binary.AppendUvarint(buf, seq)
	buf = finishFrame(buf)
	_, err := bw.Write(buf)
	putFrameBuf(buf)
	if err != nil {
		return err
	}
	return bw.Flush()
}

// appendHello builds the hello frame announcing the dialing process's
// listen address, session incarnation nonce, and the first data seq
// this conn will carry.
func appendHello(b []byte, addr string, nonce, firstSeq uint64) []byte {
	b = beginFrame(b, frameHello)
	b = binary.AppendUvarint(b, nonce)
	b = binary.AppendUvarint(b, firstSeq)
	b = binary.AppendUvarint(b, uint64(len(addr)))
	b = append(b, addr...)
	return finishFrame(b)
}

func parseHello(body []byte) (addr string, nonce, firstSeq uint64, err error) {
	if nonce, body, err = decUvarint(body); err != nil {
		return "", 0, 0, err
	}
	if firstSeq, body, err = decUvarint(body); err != nil {
		return "", 0, 0, err
	}
	var n uint64
	if n, body, err = decUvarint(body); err != nil || n > uint64(len(body)) {
		return "", 0, 0, errShortFrame
	}
	return string(body[:n]), nonce, firstSeq, nil
}

// writeEmptyFrame appends and flushes a bodyless frame (keepalive
// ping/pong); shared so the two sides' probe plumbing cannot drift.
func writeEmptyFrame(bw *bufio.Writer, kind byte) error {
	buf := finishFrame(beginFrame(getFrameBuf(), kind))
	_, err := bw.Write(buf)
	putFrameBuf(buf)
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writePong appends and flushes a keepalive reply frame.
func writePong(bw *bufio.Writer) error {
	return writeEmptyFrame(bw, framePong)
}
