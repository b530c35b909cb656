package bootstrap

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
)

func initTestCache(t *testing.T) *Cache {
	t.Helper()
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic", d.Store, endpoint.Limits{})
	c, err := Initialize(context.Background(), ep, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheFileChecksummed(t *testing.T) {
	c := initTestCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("#sapphire-cache v2 ")) {
		t.Fatalf("saved cache lacks the v2 header: %q", data[:40])
	}

	// The intact file loads.
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact cache rejected: %v", err)
	}

	// Any truncation is rejected — a crashed save must never load as a
	// silently smaller lexicon.
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:len(data)-cut])); err == nil {
			t.Fatalf("cache truncated by %d bytes loaded without error", cut)
		}
	}

	// A flipped bit in the body is rejected.
	headerEnd := bytes.IndexByte(data, '\n') + 1
	for _, off := range []int{headerEnd, headerEnd + (len(data)-headerEnd)/2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupt byte at %d: want checksum error, got %v", off, err)
		}
	}

	// Garbage after a '#' is not mistaken for a v2 header.
	if _, err := Load(strings.NewReader("#not a cache\n{}")); err == nil {
		t.Fatal("bogus header accepted")
	}
}

func TestCacheRejectsHeaderless(t *testing.T) {
	c := initTestCache(t)
	// A v1 file is the bare JSON body earlier builds wrote: no length,
	// no checksum, so nothing to trust it by.
	var v1 bytes.Buffer
	if err := c.saveJSON(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&v1); !errors.Is(err, ErrCacheHeader) {
		t.Fatalf("headerless cache: err = %v, want ErrCacheHeader", err)
	}
	if _, err := Load(strings.NewReader("")); !errors.Is(err, ErrCacheHeader) {
		t.Fatalf("empty cache: err = %v, want ErrCacheHeader", err)
	}
}

func TestSaveFileAtomic(t *testing.T) {
	c := initTestCache(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ep.cache")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Load(f); err != nil {
		t.Fatalf("SaveFile output rejected: %v", err)
	}
	// Overwriting leaves exactly one file — no stray temp files.
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ep.cache" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after two saves: %v", names)
	}
}
