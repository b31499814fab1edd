package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Log is an append-only file: every Append is one O_APPEND write, so a
// kill can tear only the final write, which the next OpenLog repairs.
// Callers serialise Append under the mutex that already guards the
// sequence number or sample state the bytes describe. A nil *Log is a
// sink with no file attached: Append, Sync and Close do nothing.
type Log struct {
	f *os.File
}

// TerminateLine is the OpenLog tail policy for JSON Lines files: a
// final line with no newline (a torn append) gets one, so the next
// append starts on its own line and readers skip only the fragment.
const TerminateLine int64 = -1

// OpenLog opens path for appending, creating it when missing, after
// repairing its tail: tail is TerminateLine, or the offset just past the
// last byte the caller decoded intact, beyond which the file is cut.
func OpenLog(path string, tail int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && tail != TerminateLine && st.Size() > tail {
		err = f.Truncate(tail)
	}
	if err == nil && tail == TerminateLine && st.Size() > 0 {
		last := []byte{0}
		if _, err = f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes p at the end of the file in one write.
func (l *Log) Append(p []byte) error {
	if l == nil {
		return nil
	}
	_, err := l.f.Write(p)
	return err
}

// Sync forces what was appended so far to stable storage.
func (l *Log) Sync() error {
	if l == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the file, returning the first error.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the file without syncing it, for a log whose owner is
// about to delete or replace it, or accepts that a power loss takes
// what it appended.
func (l *Log) Abandon() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}

// DecodeJSONL parses JSON Lines, skipping blank lines and lines that do
// not decode into T — a torn tail or a foreign line, neither of which
// should cost the reader the rest of the file.
func DecodeJSONL[T any](data []byte) []T {
	var out []T
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		out = appendJSON(out, line)
	}
	return out
}

// ReadJSONL is DecodeJSONL over a file, streamed line by line. A line
// longer than 4 MiB stops the read with an error next to what decoded
// before it.
func ReadJSONL[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []T
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		out = appendJSON(out, sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("durable: read %s: %w", path, err)
	}
	return out, nil
}

func appendJSON[T any](out []T, line []byte) []T {
	var v T
	if len(line) == 0 || json.Unmarshal(line, &v) != nil {
		return out
	}
	return append(out, v)
}
