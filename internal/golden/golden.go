// Package golden pins built layouts to recorded digests, so a refactor of
// the build engine cannot change what it builds without a visible diff.
//
// A digest is the sha256 of a canonical encoding of the layout: the node
// rectangles in label order, then every wire's ID, U, V and path points, each
// value a little-endian int64 and each list prefixed by its length. The name
// and layer count are left out; the points' Z coordinates carry the layers.
//
// A golden file holds one "key digest" line per layout, sorted by key, with
// '#' comment lines. Tests compare against it; the test that owns a file
// rewrites it only when run with -update.
package golden

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"mlvlsi/internal/layout"
)

// Update is the -update flag: when set, the test owning a golden file
// rewrites it from the layouts it builds instead of comparing against it.
var Update = flag.Bool("update", false, "rewrite the golden layout digests under testdata")

// Digest returns the hex sha256 of lay's canonical encoding.
func Digest(lay *layout.Layout) string {
	h := sha256.New()
	var buf []byte
	put := func(vs ...int) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	put(len(lay.Nodes))
	for _, r := range lay.Nodes {
		put(r.X, r.Y, r.W, r.H)
	}
	put(len(lay.Wires))
	for _, w := range lay.Wires {
		put(w.ID, w.U, w.V, len(w.Path))
		for _, p := range w.Path {
			put(p.X, p.Y, p.Z)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// Read loads a golden file into a key → digest map.
func Read(t testing.TB, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden: %v (record it with -update)", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden: %s:%d: want \"key digest\", got %q", path, n, line)
		}
		out[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden: reading %s: %v", path, err)
	}
	return out
}

// Write records digests as a golden file, keys sorted, under a header
// comment.
func Write(t testing.TB, path, header string, digests map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(header, "\n") {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	for _, k := range sortedKeys(digests) {
		fmt.Fprintf(&b, "%s %s\n", k, digests[k])
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatalf("golden: %v", err)
	}
}

// Compare reports every key whose digest differs from the golden one, every
// key missing from the golden file, and every golden key not built.
func Compare(t testing.TB, want, got map[string]string) {
	t.Helper()
	for _, k := range sortedKeys(got) {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest (record it with -update)", k)
		case w != got[k]:
			t.Errorf("%s: layout digest %s, golden %s", k, got[k], w)
		}
	}
	for _, k := range sortedKeys(want) {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden digest recorded but the layout was not built", k)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
