package storage_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// FuzzDecodeReadAck feeds arbitrary bytes to the read-ack decoder, as a
// Byzantine server or a corrupted link may send them (the payload that
// follows the message's type tag). Decoding must not panic, and
// whatever decodes must re-encode to exactly the bytes it came from:
// the codec accepts one encoding per ack, so no two byte strings carry
// the same ack. The committed corpus (testdata/fuzz) holds the
// non-canonical encodings the codec rejects.
func FuzzDecodeReadAck(f *testing.F) {
	transport.Register(storage.ReadAck{})
	empty, err := transport.EncodeMessage(nil, storage.ReadAck{})
	if err != nil {
		f.Fatal(err)
	}
	tag := empty[:4:4]
	p := storage.Pair{TS: 7, Val: "v"}
	for _, ack := range []storage.ReadAck{
		{},
		{ReadNo: 1, Round: 1, Rows: []storage.TSRow{{TS: 7, Row: storage.Row{{Pair: p}}}}},
		{ReadNo: -3, Round: 3, Rows: []storage.TSRow{
			{TS: 6, Row: storage.Row{{Pair: storage.Pair{TS: 6, Val: "\xff\x00"}}, {Pair: p, Sets: []core.Set{core.NewSet(0, 1, 2), core.FullSet(64)}}}},
			{TS: 7, Row: storage.Row{{Pair: p}, {Pair: p}, {Pair: p}}},
		}},
	} {
		b, err := transport.EncodeMessage(nil, ack)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		in := append(slices.Clip(tag), payload...)
		m, err := transport.DecodeMessage(in)
		if err != nil {
			return
		}
		ack, ok := m.(storage.ReadAck)
		if !ok {
			t.Fatalf("decoded %T, want storage.ReadAck", m)
		}
		out, err := transport.EncodeMessage(nil, ack)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", ack, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%+v re-encodes to %x, decoded from %x", ack, out, in)
		}
	})
}
