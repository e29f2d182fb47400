package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"rejuv/internal/core"
)

// fuzzSeed builds a valid binary journal for the fuzz corpus.
func fuzzSeed() []byte {
	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	writeSample(jw)
	return buf.Bytes()
}

// fuzzSeedJSONL builds a valid JSONL journal for the fuzz corpus.
func fuzzSeedJSONL() []byte {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf, sampleMeta)
	writeSample(jw)
	return buf.Bytes()
}

// FuzzReader throws arbitrary bytes at the decoder: it must never
// panic, never loop forever, and on records it does accept, re-encoding
// must reproduce the accepted payload (decode/encode idempotence).
func FuzzReader(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add(fuzzSeedJSONL())
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(append(append([]byte{}, magic[:]...), Version, 0x02, '{', '}'))
	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			rec, err := jr.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return
			}
			if !rec.Kind.Valid() {
				t.Fatalf("decoder accepted invalid kind %d", byte(rec.Kind))
			}
			if jr.Format() == FormatBinary {
				reencodeCheck(t, rec)
			}
		}
	})
}

// reencodeCheck asserts that re-encoding an accepted record and
// decoding it again yields the same record bit for bit — the decoder
// and encoder agree on the wire layout.
func reencodeCheck(t *testing.T, rec Record) {
	t.Helper()
	rec.Seq = 0 // the writer renumbers from 0
	if got := writeAndRead(t, NewWriter, rec); !sameBits(got, rec) {
		t.Fatalf("record did not survive re-encode round trip:\n first %+v\nsecond %+v", rec, got)
	}
}

// FuzzReplayRobustness feeds arbitrary journals to the replay verifier:
// whatever the bytes, Replay must return, not panic.
func FuzzReplayRobustness(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add(fuzzSeedJSONL())
	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		factory := func() (core.Detector, error) {
			return core.NewSRAA(core.SRAAConfig{
				SampleSize: 2, Buckets: 3, Depth: 2,
				Baseline: core.Baseline{Mean: 5, StdDev: 5},
			})
		}
		_, _ = Replay(jr, factory)
	})
}

// FuzzRecordRoundTrip checks that encode then decode is the identity
// for every record kind: a record carrying fuzzed values in exactly the
// fields of its kind's schema must come back from Writer.Record and
// Reader bit for bit in the binary codec, and in the JSONL codec too
// whenever JSON can represent it.
func FuzzRecordRoundTrip(f *testing.F) {
	data := make([]byte, 8*24)
	for i := range data {
		data[i] = byte(i * 37)
	}
	for _, r := range wantSample() {
		f.Add(byte(r.Kind-1), data, r.Class)
	}
	f.Add(byte(KindDecision-1), []byte{}, "")
	f.Fuzz(func(t *testing.T, kind byte, data []byte, class string) {
		want := fuzzRecord(Kind(kind%byte(maxKind)+1), data, class)
		if got := writeAndRead(t, NewWriter, want); !sameBits(got, want) {
			t.Fatalf("binary round trip:\n got %+v\nwant %+v", got, want)
		}
		if !jsonlForm(&want) {
			return
		}
		if got := writeAndRead(t, NewJSONWriter, want); !sameBits(got, want) {
			t.Fatalf("JSONL round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}

// schemaFields names the Record fields each payload field carries.
var schemaFields = [...][]string{
	fRep: {"Rep"}, fSeed: {"Seed"}, fStream: {"Stream"}, fValue: {"Value"},
	fFlags:      {"Evaluated", "Triggered", "Suppressed"},
	fSampleMean: {"SampleMean"}, fTarget: {"Target"}, fLevel: {"Level"}, fFill: {"Fill"},
	fSampleSize: {"SampleSize"}, fSampleFill: {"SampleFill"}, fStatistic: {"Statistic"},
	fKilled: {"Killed"}, fHeapMB: {"HeapMB"}, fEventTime: {"EventTime"}, fClass: {"Class"},
	fAttempt: {"Attempt"}, fOK: {"OK"}, fBackoff: {"Backoff"},
	fBaseMean: {"BaseMean"}, fBaseStdDev: {"BaseStdDev"}, fTriggerID: {"TriggerID"},
}

// fuzzRecord fills every field of a record from data (eight bytes per
// field, zero once data runs out) and class, then keeps Time and the
// fields schema[k] carries; the rest stay zero, as a decoder leaves them.
func fuzzRecord(k Kind, data []byte, class string) Record {
	var full Record
	v := reflect.ValueOf(&full).Elem()
	next := func() uint64 {
		var w [8]byte
		data = data[copy(w[:], data):]
		return binary.LittleEndian.Uint64(w[:])
	}
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Float64:
			fv.SetFloat(math.Float64frombits(next()))
		case reflect.Int:
			fv.SetInt(int64(next()))
		case reflect.Uint64:
			fv.SetUint(next())
		case reflect.Bool:
			fv.SetBool(next()&1 != 0)
		case reflect.String:
			fv.SetString(clipClass(class))
		}
	}
	want := Record{Kind: k, Time: full.Time}
	w := reflect.ValueOf(&want).Elem()
	for _, f := range schema[k] {
		for _, name := range schemaFields[f] {
			w.FieldByName(name).Set(v.FieldByName(name))
		}
	}
	return want
}

// jsonlForm turns r into what the JSONL codec reads back and reports
// whether it can carry r at all: JSON has no non-finite numbers and
// replaces invalid UTF-8, and an omitempty field holding negative zero
// is written as absent, so it reads back as positive zero.
func jsonlForm(r *Record) bool {
	if !utf8.ValidString(r.Class) {
		return false
	}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		fv := v.Field(i)
		if fv.Kind() != reflect.Float64 {
			continue
		}
		x := fv.Float()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
		if x == 0 && v.Type().Field(i).Name != "Time" {
			fv.SetFloat(0)
		}
	}
	return true
}

// writeAndRead writes r as the only record of a fresh journal and reads
// it back.
func writeAndRead(t *testing.T, newWriter func(io.Writer, Meta) *Writer, r Record) Record {
	t.Helper()
	var buf bytes.Buffer
	jw := newWriter(&buf, Meta{})
	jw.Record(r)
	if err := jw.Err(); err != nil {
		t.Fatalf("writing %+v: %v", r, err)
	}
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	recs, err := jr.ReadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("reading back %+v: %d records, err %v", r, len(recs), err)
	}
	return recs[0]
}

// sameBits compares two records field by field, floats by their bits.
func sameBits(a, b Record) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}
