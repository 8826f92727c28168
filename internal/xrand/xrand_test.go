package xrand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamGolden pins the first outputs of the streams seeded the
// way their callers seed them; the values were captured from the
// per-package generators this package replaced, so a change here is a
// change to every replayed schedule, jitter sequence and probe order.
func TestStreamGolden(t *testing.T) {
	const seed = 1
	cases := []struct {
		name string
		s    Stream
		want [8]uint64
	}{
		{"load hotkey", Stream(seed*golden + Hash("hotkey")), [8]uint64{
			0x93cc478dab338be9, 0x13ce631cf3d22579, 0xa4a00abb517b1a84, 0x29b857906f3720fe,
			0xa5eeaa640a8e1adf, 0xfb2622e98c3941c2, 0xd364af8c786f7b39, 0x8d6a13fff20f59ba,
		}},
		{"breaker class x", Stream(seed*golden + Hash("x") + 1), [8]uint64{
			0xf4b11158caa3cf5c, 0xcb2ad39a3c041123, 0xcba130d26da5aa44, 0xfe27467d950e7253,
			0x9adb797b9f976bd6, 0xebcfc2992a4daa80, 0x3834daf8e8e470ed, 0xe8b54cc4bdd2fd66,
		}},
		{"cluster", Stream(seed*golden + 0x2545f4914f6cdd1d), [8]uint64{
			0x890acd8dd443c47c, 0xb3889d8a6dc47761, 0x6a0398e528f0ae6a, 0x048344ece48a855e,
			0xf175cfea21871330, 0x391ceef02702c2fd, 0x4baf8cac4784cb12, 0x3547744583a3f88e,
		}},
	}
	for _, c := range cases {
		s := c.s
		for i, w := range c.want {
			if got := s.Next(); got != w {
				t.Fatalf("%s: output %d = %#016x, want %#016x", c.name, i, got, w)
			}
		}
	}
}

func TestMixIsStreamStep(t *testing.T) {
	s := Stream(12345)
	for i := 0; i < 4; i++ {
		before := uint64(s)
		if got, want := s.Next(), Mix(before); got != want {
			t.Fatalf("step %d: Next %#x != Mix %#x", i, got, want)
		}
	}
}

func TestHashMatchesStdlibFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "x", "hotkey", "main", "http://127.0.0.1:8080", "\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := Hash(s), h.Sum64(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestNoPrivateCopies fails when the splitmix64 finalizer constant or
// the FNV-1a offset basis appears in non-test Go code outside this
// package: a new generator or site hash must call xrand instead of
// re-deriving one.
func TestNoPrivateCopies(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{
		"0x94d049bb133111eb":   true, // splitmix64 finalizer multiplier
		"14695981039346656037": true, // FNV-1a 64 offset basis
	}
	fset := token.NewFileSet()
	walked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == self || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module.
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		walked++
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT && banned[strings.ToLower(lit.Value)] {
				t.Errorf("%s: %s belongs in internal/xrand", fset.Position(lit.Pos()), lit.Value)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked == 0 {
		t.Fatal("walked no Go files")
	}
}
