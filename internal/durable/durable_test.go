package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"a4nn/internal/chaos"
)

// listDir returns dir's entry names, sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestAtomicWriteInterrupted injects a failure at each step of the
// protocol that can be made to fail from outside and checks the
// contract: the target holds its old or its new contents, never a mix,
// and no temp file is left behind.
func TestAtomicWriteInterrupted(t *testing.T) {
	const pre, post = chaos.PointManifestPreRename, chaos.PointManifestPostRename
	cases := []struct {
		name string
		// base is the target's name inside the test directory.
		base string
		// plan is a chaos spec armed around the write ("" for none).
		plan string
		// asDir makes the target a non-empty directory, so rename fails.
		asDir   bool
		wantErr bool
		want    string // file contents afterwards
	}{
		{name: "no fault", base: "f.json", want: "new"},
		{name: "temp cannot be created", base: strings.Repeat("n", 250), wantErr: true, want: "old"},
		{name: "error before rename", base: "f.json", plan: "err=" + pre + "@1", wantErr: true, want: "old"},
		{name: "rename fails", base: "f.json", asDir: true, wantErr: true},
		{name: "error after rename", base: "f.json", plan: "err=" + post + "@1", wantErr: true, want: "new"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, c.base)
			if c.asDir {
				if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
				t.Fatal(err)
			}
			if c.plan != "" {
				plan, err := chaos.Parse(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				chaos.Install(plan)
				defer chaos.Install(nil)
			}
			err := AtomicWrite(path, []byte("new"), 0o644, true, pre, post)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error: %v", err, c.wantErr)
			}
			if c.plan != "" && !chaos.IsInjected(err) {
				t.Fatalf("err = %v, want the injected one", err)
			}
			if names := listDir(t, dir); len(names) != 1 || names[0] != c.base {
				t.Fatalf("directory holds %v, want only the target", names)
			}
			if c.asDir {
				return
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != c.want {
				t.Fatalf("target = %q (%v), want %q", got, err, c.want)
			}
			if st, _ := os.Stat(path); c.want == "new" && st.Mode().Perm() != 0o644 {
				t.Fatalf("mode = %v, want 0644", st.Mode().Perm())
			}
		})
	}
}

func TestRemoveTemps(t *testing.T) {
	root := t.TempDir()
	keep := []string{"epoch_003.bin", "job.json", "notes.tmp-", "x.tmp-12a", ".tmp-7", "models/m/epoch_001.bin"}
	orphans := []string{"epoch_003.bin.tmp-12345", "job.json.tmp-1", "a.tmp-1.tmp-22", "models/m/epoch_002.bin.tmp-3"}
	// A directory is never a temp file, whatever its name.
	if err := os.MkdirAll(filepath.Join(root, "models", "m", "dir.tmp-9"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rel := range append(append([]string{}, keep...), orphans...) {
		if err := os.WriteFile(filepath.Join(root, rel), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := RemoveTemps(root)
	if err != nil || n != len(orphans) {
		t.Fatalf("RemoveTemps = %d, %v; want %d", n, err, len(orphans))
	}
	for _, rel := range orphans {
		if _, err := os.Stat(filepath.Join(root, rel)); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep (%v)", rel, err)
		}
	}
	for _, rel := range append(keep, "models/m/dir.tmp-9") {
		if _, err := os.Stat(filepath.Join(root, rel)); err != nil {
			t.Errorf("%s was swept: %v", rel, err)
		}
	}
	if n, err := RemoveTemps(root); err != nil || n != 0 {
		t.Fatalf("second sweep = %d, %v; want 0", n, err)
	}
	if n, err := RemoveTemps(filepath.Join(root, "missing")); err != nil || n != 0 {
		t.Fatalf("missing root = %d, %v; want 0, nil", n, err)
	}
}

// TestOpenLog covers both tail policies over every state a kill can
// leave a log in, then appends and checks the file byte for byte.
func TestOpenLog(t *testing.T) {
	missing := "\x00missing"
	cases := []struct {
		name    string
		initial string
		tail    int64
		want    string // file after repair + Append("next\n")
	}{
		{"jsonl missing", missing, TerminateLine, "next\n"},
		{"jsonl empty", "", TerminateLine, "next\n"},
		{"jsonl clean", "a\nb\n", TerminateLine, "a\nb\nnext\n"},
		{"jsonl torn", "a\n{\"b", TerminateLine, "a\n{\"b\nnext\n"},
		{"offset missing", missing, 0, "next\n"},
		{"offset empty", "", 0, "next\n"},
		{"offset clean", "HEADblock", 9, "HEADblocknext\n"},
		{"offset torn", "HEADblockbl", 9, "HEADblocknext\n"},
		{"offset all torn", "HE", 0, "next\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if c.initial != missing {
				if err := os.WriteFile(path, []byte(c.initial), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := OpenLog(path, c.tail)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("next\n")); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != c.want {
				t.Fatalf("file = %q, want %q", got, c.want)
			}
		})
	}
	if _, err := OpenLog(filepath.Join(t.TempDir(), "no", "such", "dir"), TerminateLine); err == nil {
		t.Fatal("OpenLog in a missing directory succeeded")
	}
}

func TestJSONLSkipsTornAndForeignLines(t *testing.T) {
	type rec struct {
		N int `json:"n"`
	}
	data := []byte("{\"n\":1}\n\n\r\nnot json\n{\"n\":\"string\"}\n{\"n\":2}\r\n[3]\n{\"n\":4")
	want := "[{1} {2}]"
	if got := fmt.Sprint(DecodeJSONL[rec](data)); got != want {
		t.Errorf("DecodeJSONL = %s, want %s", got, want)
	}
	path := filepath.Join(t.TempDir(), "f.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL[rec](path)
	if err != nil || fmt.Sprint(got) != want {
		t.Errorf("ReadJSONL = %v, %v; want %s", got, err, want)
	}
	if _, err := ReadJSONL[rec](path + ".missing"); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
	// An over-long line stops the stream but keeps what preceded it.
	long := append([]byte("{\"n\":7}\n"), bytes.Repeat([]byte("x"), 5<<20)...)
	if err := os.WriteFile(path, long, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadJSONL[rec](path); err == nil || fmt.Sprint(got) != "[{7}]" {
		t.Errorf("over-long line: %v, %v; want [{7}] and an error", got, err)
	}
}

// sections decodes data as a run of sections, returning the names seen
// and the offset just past the last intact one.
func sections(data []byte) (names []string, good int, err error) {
	for good < len(data) {
		name, payload, n, err := NextSection(data[good:])
		if err != nil {
			return names, good, err
		}
		if n <= 0 || n > len(data)-good || n != 12+len(name)+len(payload) {
			return names, good, fmt.Errorf("section %q claims %d bytes of %d", name, n, len(data)-good)
		}
		names = append(names, name)
		good += n
	}
	return names, good, nil
}

// TestNextSectionTruncation cuts a valid two-section buffer at every
// byte offset: the decode must stop with an error at the end of the
// last intact section, and never panic.
func TestNextSectionTruncation(t *testing.T) {
	first := AppendSection(nil, "meta", []byte(`{"version":1}`))
	full := AppendSection(first, "events", nil)
	full = AppendSection(full, "g{job=\"j1\"}", bytes.Repeat([]byte{0xA5}, 40))
	second := len(AppendSection(first, "events", nil))

	if names, good, err := sections(full); err != nil || good != len(full) || len(names) != 3 {
		t.Fatalf("intact buffer: %v, %d, %v", names, good, err)
	}
	for cut := 0; cut < len(full); cut++ {
		names, good, err := sections(full[:cut])
		wantGood, wantN := 0, 0
		switch {
		case cut >= second:
			wantGood, wantN = second, 2
		case cut >= len(first):
			wantGood, wantN = len(first), 1
		}
		intact := cut == wantGood // a cut on a section boundary is a shorter valid buffer
		if good != wantGood || len(names) != wantN || (err == nil) != intact {
			t.Fatalf("cut at %d: %d sections, good %d, err %v; want %d sections, good %d, error: %v",
				cut, len(names), good, err, wantN, wantGood, !intact)
		}
	}
	// A flipped payload bit fails the CRC of its own section only.
	flipped := append([]byte(nil), full...)
	flipped[len(full)-10] ^= 1
	if names, good, err := sections(flipped); err == nil || good != second || len(names) != 2 {
		t.Fatalf("bit flip: %v, %d, %v", names, good, err)
	}
}

// FuzzNextSection holds the framing decoder's contract on arbitrary
// bytes: an error or a section that lies wholly inside the input and
// re-frames to exactly the bytes it was decoded from — never a panic.
func FuzzNextSection(f *testing.F) {
	// A tsdb block (series name + Gorilla chunk) and a bundle section.
	f.Add(AppendSection(nil, "a4nn_train_epochs_total", []byte{3, 0xd0, 0x0f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x5a}))
	f.Add(AppendSection(nil, "meta", []byte(`{"version":1,"reason":"fuzz seed","t":1,"pid":2,"go_version":"go"}`)))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 'x', 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, payload, n, err := NextSection(data)
		if err != nil {
			if name != "" || payload != nil || n != 0 {
				t.Fatalf("error %v alongside %q, %d payload bytes, n=%d", err, name, len(payload), n)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("section of %d bytes decoded from %d", n, len(data))
		}
		if again := AppendSection(nil, name, payload); !bytes.Equal(again, data[:n]) {
			t.Fatalf("section %q does not re-frame to its own bytes", name)
		}
	})
}

// TestSyncDir: the directory fsync that makes an fsynced AtomicWrite's
// rename durable opens the target's directory, the working directory
// for a bare name, and reports a directory it cannot open.
func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(""); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("a missing directory synced")
	}
}
