package envelope

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	errCorrupt = errors.New("test: corrupt")
	errSchema  = errors.New("test: schema")
	testFormat = &Format{Magic: [8]byte{'T', 'E', 'S', 'T', 'E', 'N', 'V', 1}, Version: 1, Corrupt: errCorrupt, Schema: errSchema}
)

func TestRoundTrip(t *testing.T) {
	data := testFormat.Encode([]byte(`{"k":1}`), nil, []byte{1, 2, 3})
	got, err := testFormat.Decode(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != `{"k":1}` || len(got[1]) != 0 || !bytes.Equal(got[2], []byte{1, 2, 3}) {
		t.Fatalf("sections = %q", got)
	}
	if _, err := testFormat.Decode(data, 2); !errors.Is(err, errCorrupt) {
		t.Fatalf("decoding 3 sections as 2: %v, want corrupt (trailing bytes)", err)
	}
	if _, err := testFormat.Decode(data, 4); !errors.Is(err, errCorrupt) {
		t.Fatalf("decoding 3 sections as 4: %v, want corrupt (truncated)", err)
	}
}

// TestEncodeOneAllocation: framing costs exactly one allocation, the
// output buffer.
func TestEncodeOneAllocation(t *testing.T) {
	meta, body := make([]byte, 100), make([]byte, 1000)
	if n := testing.AllocsPerRun(20, func() { testFormat.Encode(meta, body) }); n != 1 {
		t.Fatalf("Encode allocates %v times, want 1", n)
	}
}

func TestVersionAndMagic(t *testing.T) {
	data := testFormat.Encode([]byte("x"))
	future := append([]byte(nil), data...)
	future[8] = 2
	if _, err := testFormat.Decode(future, 1); !errors.Is(err, errSchema) {
		t.Fatalf("future version: %v, want schema", err)
	}
	future[8] = 0
	if _, err := testFormat.Decode(future, 1); !errors.Is(err, errCorrupt) {
		t.Fatalf("version 0: %v, want corrupt", err)
	}
	other := &Format{Magic: [8]byte{'O', 'T', 'H', 'E', 'R'}, Version: 1, Corrupt: errors.New("other")}
	if _, err := other.Decode(data, 1); err == nil || errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign magic: %v, want the other format's bad magic", err)
	}
}

func TestReaderBounds(t *testing.T) {
	r := testFormat.Reader([]byte{7, 1, 0, 0, 0, 9}, "body section")
	if v, err := r.U8(); err != nil || v != 7 {
		t.Fatalf("U8 = %d, %v", v, err)
	}
	if v, err := r.U32(); err != nil || v != 1 {
		t.Fatalf("U32 = %d, %v", v, err)
	}
	if _, err := r.U64(); !errors.Is(err, errCorrupt) || err.Error() != "test: corrupt: body section truncated at byte 5" {
		t.Fatalf("U64 past the end: %v", err)
	}
	if _, err := r.Bytes(-1); !errors.Is(err, errCorrupt) {
		t.Fatalf("negative length: %v", err)
	}
	if r.Remaining() != 1 {
		t.Fatalf("remaining %d, want 1 (failed reads consume nothing)", r.Remaining())
	}
}

type encoded []byte

func (e encoded) Encode() ([]byte, error) { return e, nil }

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "f.bin")
	if err := Save(path, ".f-*", encoded("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, func(b []byte) (string, error) { return string(b), nil })
	if err != nil || got != "hello" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	_, err = Load(path, func([]byte) (string, error) { return "", errCorrupt })
	if !errors.Is(err, errCorrupt) || !strings.HasPrefix(err.Error(), path+": ") {
		t.Fatalf("decode failure: %v, want it prefixed with the path", err)
	}
	if _, err := Load(filepath.Join(dir, "absent"), func([]byte) (string, error) { return "", nil }); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(filepath.Join(dir, "d"), ".f-*", encoded("x")); err == nil {
		t.Fatal("Save onto a directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".f-*")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// FuzzDecode: arbitrary bytes never panic the decoder, every error wraps one
// of the format's sentinels, and whatever decodes re-encodes to the same
// bytes.
func FuzzDecode(f *testing.F) {
	valid := testFormat.Encode([]byte(`{"a":1}`), []byte{0, 1, 2, 3})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:12])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, err := testFormat.Decode(data, 2)
		if err != nil {
			if !errors.Is(err, errCorrupt) && !errors.Is(err, errSchema) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if re := testFormat.Encode(sections...); !bytes.Equal(re, data) {
			t.Fatal("accepted input does not re-encode to the same bytes")
		}
	})
}
