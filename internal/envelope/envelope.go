// Package envelope is the binary container shared by the .uoim model
// artifact (internal/model) and the .uoickpt checkpoint
// (internal/checkpoint). A file is
//
//	magic   8 bytes
//	version u32      format major version
//	N × [ u64 len | len bytes payload | u32 CRC32-IEEE(payload) ]
//
// with every integer little-endian. The package frames and unframes the
// sections, walks a section payload with bounds checking, and writes a file
// atomically; what the sections mean, and which sentinel errors report
// damage, belong to the caller's Format.
package envelope

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Format names one container layout and the errors its decoder reports.
type Format struct {
	// Magic is the 8-byte file signature.
	Magic [8]byte
	// Version is the container major version. Readers accept only versions
	// up to their own: a bump means the section framing itself changed.
	Version uint32
	// Corrupt wraps structural damage: truncation, bad magic, version 0,
	// checksum mismatch, trailing bytes.
	Corrupt error
	// Schema wraps an intact file from a future format version.
	Schema error
}

// Encode frames the sections behind the magic and version in one
// allocation.
func (f *Format) Encode(sections ...[]byte) []byte {
	n := len(f.Magic) + 4
	for _, s := range sections {
		n += 8 + len(s) + 4
	}
	out := make([]byte, 0, n)
	out = append(out, f.Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, f.Version)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s)))
		out = append(out, s...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s))
	}
	return out
}

// Decode checks the magic, the version and every checksum, and returns the
// n section payloads (views into data). A file with more or fewer sections
// is corrupt. Decode never panics.
func (f *Format) Decode(data []byte, n int) ([][]byte, error) {
	if len(data) < len(f.Magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", f.Corrupt, len(data))
	}
	if [8]byte(data[:8]) != f.Magic {
		return nil, fmt.Errorf("%w: bad magic", f.Corrupt)
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version == 0 {
		return nil, fmt.Errorf("%w: format version 0", f.Corrupt)
	}
	if version > f.Version {
		return nil, fmt.Errorf("%w: format version %d (this reader understands ≤ %d)", f.Schema, version, f.Version)
	}
	rest := data[12:]
	sections := make([][]byte, n)
	for i := range sections {
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated section header", f.Corrupt)
		}
		size := binary.LittleEndian.Uint64(rest)
		if size > uint64(len(rest)-8) {
			return nil, fmt.Errorf("%w: section of %d bytes exceeds file", f.Corrupt, size)
		}
		payload := rest[8 : 8+size]
		if len(rest) < int(8+size+4) {
			return nil, fmt.Errorf("%w: truncated section checksum", f.Corrupt)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[8+size:]) {
			return nil, fmt.Errorf("%w: section checksum mismatch", f.Corrupt)
		}
		sections[i] = payload
		rest = rest[8+size+4:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", f.Corrupt, len(rest))
	}
	return sections, nil
}

// Reader walks a section payload with bounds checking: every read past the
// end is an error wrapping the Format's Corrupt sentinel, never a panic.
type Reader struct {
	buf     []byte
	off     int
	corrupt error
	name    string
}

// Reader returns a Reader over payload; name (e.g. "cells section") labels
// its truncation errors.
func (f *Format) Reader(payload []byte, name string) *Reader {
	return &Reader{buf: payload, corrupt: f.Corrupt, name: name}
}

// Bytes returns the next n bytes as a view into the payload.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, fmt.Errorf("%w: %s truncated at byte %d", r.corrupt, r.name, r.off)
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	b, err := r.Bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.Bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Save encodes v and writes it to path atomically: a temp file named by
// pattern (os.CreateTemp) in path's directory, fsync, then rename over path.
// A reader of path sees the old file or the new one, never a torn write,
// and a failure at any step removes the temp file.
func Save(path, pattern string, v interface{ Encode() ([]byte, error) }) error {
	data, err := v.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Load reads path and decodes it; a decode error is prefixed with the path,
// a read error (e.g. fs.ErrNotExist) is returned as is.
func Load[T any](path string, decode func([]byte) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(data)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return v, err
}
