package transport

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// codecPair is a WriteReq-shaped struct exercising ints, strings and
// Set slices; codecNested adds maps, arrays, floats and bools.
type codecPair struct {
	TS  int64
	Val string
}

type codecNested struct {
	Pairs  map[int64][2]codecPair
	Sets   []core.Set
	Flag   bool
	Ratio  float64
	Ratio2 float32
	Raw    []byte
	Count  uint32
	hidden int // unexported: must not travel
}

func encodeDecode(t *testing.T, payload Message) Envelope {
	t.Helper()
	buf, err := appendEnvelope(nil, &Envelope{From: 3, To: 5, Hop: 2, Payload: payload})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	env, err := decodeEnvelope(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if env.From != 3 || env.To != 5 || env.Hop != 2 {
		t.Fatalf("header corrupted: %+v", env)
	}
	return env
}

func TestCodecRoundTrip(t *testing.T) {
	Register(codecPair{})
	Register(codecNested{})
	Register("")

	cases := []Message{
		codecPair{TS: -42, Val: "hello"},
		codecPair{},
		"bare string",
		codecNested{
			Pairs: map[int64][2]codecPair{
				7:  {{TS: 1, Val: "a"}, {TS: 2, Val: "b"}},
				-9: {{TS: 3}, {}},
			},
			Sets:   []core.Set{core.NewSet(0, 2), core.NewSet(1)},
			Flag:   true,
			Ratio:  3.25,
			Ratio2: -0.5,
			Raw:    []byte{0, 255, 7},
			Count:  1 << 30,
		},
		nil,
	}
	for _, payload := range cases {
		env := encodeDecode(t, payload)
		if !reflect.DeepEqual(env.Payload, payload) {
			t.Errorf("round trip: got %#v, want %#v", env.Payload, payload)
		}
	}
}

func TestCodecUnexportedFieldsStayHome(t *testing.T) {
	Register(codecNested{})
	env := encodeDecode(t, codecNested{Flag: true, hidden: 99})
	got := env.Payload.(codecNested)
	if got.hidden != 0 || !got.Flag {
		t.Errorf("got %+v, want hidden=0 Flag=true", got)
	}
}

func TestCodecUnregisteredPayloadErrors(t *testing.T) {
	type notRegistered struct{ X int }
	if _, err := appendEnvelope(nil, &Envelope{Payload: notRegistered{1}}); err == nil {
		t.Error("encoding an unregistered type should error")
	}
}

func TestCodecUnknownTagErrors(t *testing.T) {
	Register("")
	buf, err := appendEnvelope(nil, &Envelope{Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the type tag (last 4+1 bytes before the 1-byte string
	// length and content: header varints are 3×1 byte here).
	buf[3] ^= 0xFF
	if _, err := decodeEnvelope(buf); err == nil {
		t.Error("unknown tag should error, not misdecode")
	}
}

func TestCodecTruncatedFrameErrors(t *testing.T) {
	Register(codecPair{})
	buf, err := appendEnvelope(nil, &Envelope{Payload: codecPair{TS: 1, Val: "hello"}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if env, err := decodeEnvelope(buf[:len(buf)-cut]); err == nil {
			// Truncation inside the trailing payload value may still
			// parse shorter strings; it must never panic, and headers
			// must be intact if it parses.
			if env.From != 0 && env.From != int(buf[0])>>1 {
				t.Errorf("cut %d: nonsense header %+v", cut, env)
			}
		}
	}
}

// TestDecodeMessageRejectsNonCanonical: a message has one encoding.
// A varint or length in a longer form than the shortest, a bool byte
// other than 0 or 1, or bytes after the payload fail to decode instead
// of decoding to a message that re-encodes differently.
func TestDecodeMessageRejectsNonCanonical(t *testing.T) {
	Register(codecPair{})
	Register(codecNested{})
	good, err := EncodeMessage(nil, codecPair{TS: 1, Val: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(good); err != nil {
		t.Fatalf("canonical encoding: %v", err)
	}
	tag := good[:4:4]
	flag, err := EncodeMessage(nil, codecNested{Flag: true})
	if err != nil {
		t.Fatal(err)
	}
	const flagAt = 4 + 1 + 1 // the tag, the empty Pairs and Sets, then Flag
	if flag[flagAt] != 1 {
		t.Fatalf("flag byte at %d is %#x, want 1", flagAt, flag[flagAt])
	}
	flag[flagAt] = 2
	for name, b := range map[string][]byte{
		"long varint": append(tag, 0x82, 0x00, 1, 'v'),
		"long length": append(tag, 0x02, 0x81, 0x00, 'v'),
		"trailing":    append(slices.Clone(good), 0),
		"bool 2":      flag,
	} {
		if m, err := DecodeMessage(b); err == nil {
			t.Errorf("%s: decoded %#v", name, m)
		}
	}
}

func TestCodecRegisterIdempotent(t *testing.T) {
	Register(codecPair{})
	Register(codecPair{}) // must not panic
}
