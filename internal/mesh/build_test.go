package mesh

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/icosa"
)

// handTriangulation returns a triangulation over n arbitrary nodes; the
// construction errors tested below all fire before positions matter.
func handTriangulation(n int, tris ...[3]int32) *icosa.Triangulation {
	nodes := make([]geom.Vec3, n)
	for i := range nodes {
		nodes[i] = geom.V(1, 0, 0)
	}
	return &icosa.Triangulation{Nodes: nodes, Triangles: tris}
}

func TestFromTriangulationRejectsMalformedInput(t *testing.T) {
	// Node 0 at the centre of a fan of seven triangles has seven incident
	// edges, one more than a row of the edge table holds.
	var fan [][3]int32
	for i := int32(1); i <= 7; i++ {
		fan = append(fan, [3]int32{0, i, i%7 + 1})
	}
	cases := []struct {
		name string
		tri  *icosa.Triangulation
		want string
	}{
		{"node degree over MaxEdges", handTriangulation(8, fan...),
			"node 0 has more than 6 incident edges"},
		{"edge on three triangles", handTriangulation(5, [3]int32{0, 1, 2}, [3]int32{1, 0, 3}, [3]int32{0, 1, 4}),
			"edge [0 1] on more than two triangles"},
		{"node out of range", handTriangulation(3, [3]int32{0, 1, 9}),
			"triangle 0 has invalid side"},
		{"repeated node", handTriangulation(3, [3]int32{0, 1, 1}),
			"triangle 0 has invalid side"},
	}
	for _, tc := range cases {
		_, err := FromTriangulation(tc.tri, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
