package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestExtractGoldenDigest pins everything Extract produces for a 3-part
// bisection at level 4 with 3 halo layers: the L2G maps, the depth arrays
// and the serialized local mesh of every part. Local numbering is what the
// halo exchange specs and the interior-first schedules are built on, so a
// change to extraction must leave this digest untouched. Like the mesh
// digests it is amd64's (other architectures may fuse multiply-adds).
func TestExtractGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digest is recorded on amd64")
	}
	g := mesh4(t)
	p, err := Bisect(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ints := func(xs []int32) {
		binary.Write(h, binary.LittleEndian, int64(len(xs)))
		binary.Write(h, binary.LittleEndian, xs)
	}
	for part := 0; part < 3; part++ {
		l := Extract(g, p, part, 3)
		binary.Write(h, binary.LittleEndian, int64(l.NOwnedCells))
		for _, xs := range [][]int32{l.CellL2G, l.EdgeL2G, l.VertL2G, l.CellDepth, l.EdgeDepth, l.VertDepth} {
			ints(xs)
		}
		if err := l.M.Write(h); err != nil {
			t.Fatal(err)
		}
	}
	const want = "ddc8892d1f3f7e2eb90f5ac8cb93d17faa22dc196bdcbfb972a2eeeda19417db"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Extract digest %s, want %s", got, want)
	}
}
