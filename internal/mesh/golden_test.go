package mesh

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// TestBuildGoldenDigests pins the serialized bytes of built meshes. Mesh
// construction is the one input every process of a distributed run
// recomputes independently, so any change to it — an optimisation, a
// reordered loop — must leave these digests untouched. The digests are
// amd64's: Go may fuse multiply-adds on other architectures, which changes
// the low bits.
func TestBuildGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	center := geom.FromLatLon(math.Pi/6, 3*math.Pi/2)
	cases := []struct {
		name  string
		level int
		opt   Options
		want  string
	}{
		{"l4-lloyd0", 4, Options{}, "7d4e80665a20b0f76a3b0b30e9881cdbb24b28a7461a0defe6a7ef8d822b711c"},
		{"l4-lloyd2", 4, Options{LloydIterations: 2}, "3050a9bed27505427881e327a1e707e805b4deeb26fd7931f6fad550a290332c"},
		{"l3-density40", 3, Options{
			LloydIterations: 40,
			LloydRelaxation: 1.5,
			Density:         refinementDensity(center, 0.5),
		}, "6b141c73653fd54ccd23a7f00ef043070ad3caeab33ff7a8e7c5b1c02e7b470c"},
	}
	for _, tc := range cases {
		m, err := Build(tc.level, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		if err := m.Write(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: Mesh.Write digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
