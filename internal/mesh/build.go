package mesh

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/icosa"
)

// Options controls SCVT mesh construction.
type Options struct {
	// Radius is the sphere radius in meters. Zero means geom.EarthRadius.
	Radius float64
	// LloydIterations is the number of centroidal relaxation sweeps applied
	// after the icosahedral Voronoi mesh is built. The subdivided
	// icosahedron is already quasi-uniform; a few sweeps push the
	// generators toward the Voronoi centroids (the "C" in SCVT). The cell
	// connectivity is unchanged by relaxation, which is valid for the small
	// displacements involved on these meshes. A sweep reads only positions:
	// lengths and areas are computed once, after the last sweep.
	LloydIterations int
	// Density, when non-nil, makes the Lloyd sweeps density-weighted,
	// producing a VARIABLE-RESOLUTION SCVT: cell spacing scales as
	// Density^(-1/4), concentrating resolution where Density is large —
	// the multiresolution capability MPAS is built around (paper §2.B,
	// Ringler et al. 2011). Because connectivity stays fixed to the
	// icosahedral topology, keep the implied spacing contrast mild
	// (roughly 2:1, i.e. Density contrast up to ~16:1). Lloyd converges
	// slowly for large-scale density redistribution (information moves
	// about one cell per sweep); production SCVT generators run thousands
	// of sweeps, and LloydRelaxation accelerates the drift here.
	Density func(p geom.Vec3) float64
	// LloydRelaxation over-relaxes each sweep: the generator moves
	// LloydRelaxation times the distance to its (weighted) centroid.
	// Zero means 1 (plain Lloyd); values up to ~1.9 are stable and speed
	// up variable-resolution convergence roughly proportionally.
	LloydRelaxation float64
}

// Build constructs the SCVT mesh for the given icosahedral subdivision level.
func Build(level int, opt Options) (*Mesh, error) {
	tri := icosa.Generate(level)
	return FromTriangulation(tri, opt)
}

// MustBuild is Build, panicking on error; construction errors indicate a
// programming bug rather than bad input.
func MustBuild(level int, opt Options) *Mesh {
	m, err := Build(level, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// FromTriangulation constructs the Voronoi mesh whose generators are the
// triangulation nodes and whose dual is the given triangulation.
func FromTriangulation(tri *icosa.Triangulation, opt Options) (*Mesh, error) {
	radius := opt.Radius
	if radius == 0 {
		radius = geom.EarthRadius
	}

	m := &Mesh{
		Radius:    radius,
		NCells:    len(tri.Nodes),
		NVertices: len(tri.Triangles),
		Level:     tri.Level,
	}

	// --- Edge extraction from triangle sides -----------------------------
	// Edges are numbered in first-encounter order over the triangle sides.
	type edgeRec struct {
		t1, t2 int32 // adjacent triangles (vertices); t2 = -1 until found
	}
	nodes := newEdgeTable(len(tri.Nodes))
	var edges []edgeRec
	var edgeCells [][2]int32
	for ti, t := range tri.Triangles {
		for k := 0; k < 3; k++ {
			a, b := t[k], t[(k+1)%3]
			if a > b {
				a, b = b, a
			}
			if a < 0 || int(b) >= len(tri.Nodes) || a == b {
				return nil, fmt.Errorf("mesh: triangle %d has invalid side (%d,%d)", ti, t[k], t[(k+1)%3])
			}
			if ei := nodes.find(a, b); ei >= 0 {
				if edges[ei].t2 != -1 {
					return nil, fmt.Errorf("mesh: edge %v on more than two triangles", [2]int32{a, b})
				}
				edges[ei].t2 = int32(ti)
			} else {
				if err := nodes.add(a, b, int32(len(edges))); err != nil {
					return nil, err
				}
				edges = append(edges, edgeRec{t1: int32(ti), t2: -1})
				edgeCells = append(edgeCells, [2]int32{a, b})
			}
		}
	}
	for ei, e := range edges {
		if e.t2 == -1 {
			return nil, fmt.Errorf("mesh: boundary edge %d on closed surface", ei)
		}
	}
	m.NEdges = len(edges)
	m.alloc()

	// --- Positions --------------------------------------------------------
	copy(m.XCell, tri.Nodes)
	for vi, t := range tri.Triangles {
		m.XVertex[vi] = geom.Circumcenter(tri.Nodes[t[0]], tri.Nodes[t[1]], tri.Nodes[t[2]])
	}
	for ei := range edges {
		c1, c2 := edgeCells[ei][0], edgeCells[ei][1]
		m.CellsOnEdge[2*ei] = c1
		m.CellsOnEdge[2*ei+1] = c2
		m.XEdge[ei] = m.XCell[c1].Add(m.XCell[c2]).Normalize()
	}

	// --- VerticesOnEdge with tangent orientation --------------------------
	for ei, e := range edges {
		m.orientEdge(int32(ei), e.t1, e.t2)
	}

	// --- Cell adjacency, counterclockwise ---------------------------------
	if err := m.buildCellAdjacency(nodes); err != nil {
		return nil, err
	}

	// --- Vertex adjacency --------------------------------------------------
	if err := m.buildVertexAdjacency(tri, nodes); err != nil {
		return nil, err
	}

	m.computeSigns()

	// The sweeps read only positions, so the metrics are computed once,
	// from the final ones.
	omega := opt.LloydRelaxation
	if omega == 0 {
		omega = 1
	}
	for it := 0; it < opt.LloydIterations; it++ {
		m.lloydSweep(opt.Density, omega)
	}
	m.computeMetrics()

	m.computeWeightsOnEdge()
	m.computeEdgeFrames()
	m.computeLatLon()
	return m, nil
}

// edgeTable indexes a triangulation's edges by node: row n lists, in edge
// number order, the edges incident to node n and the neighbours they lead
// to. A Voronoi cell has at most MaxEdges sides, so a row has MaxEdges
// slots.
type edgeTable struct {
	deg  []uint8
	nbr  []int32 // [n*MaxEdges+j]
	edge []int32 // [n*MaxEdges+j]
}

func newEdgeTable(nodes int) *edgeTable {
	return &edgeTable{
		deg:  make([]uint8, nodes),
		nbr:  make([]int32, nodes*MaxEdges),
		edge: make([]int32, nodes*MaxEdges),
	}
}

// find returns the edge joining nodes a and b, or -1 if there is none yet.
func (t *edgeTable) find(a, b int32) int32 {
	base := int(a) * MaxEdges
	for j := base; j < base+int(t.deg[a]); j++ {
		if t.nbr[j] == b {
			return t.edge[j]
		}
	}
	return -1
}

// add records edge e between nodes a and b in both rows.
func (t *edgeTable) add(a, b, e int32) error {
	for _, ends := range [2][2]int32{{a, b}, {b, a}} {
		n, nb := ends[0], ends[1]
		d := int(t.deg[n])
		if d == MaxEdges {
			return fmt.Errorf("mesh: node %d has more than %d incident edges", n, MaxEdges)
		}
		t.nbr[int(n)*MaxEdges+d] = nb
		t.edge[int(n)*MaxEdges+d] = e
		t.deg[n]++
	}
	return nil
}

// edges returns the edges incident to node n, in edge number order.
func (t *edgeTable) edges(n int) []int32 {
	return t.edge[n*MaxEdges : n*MaxEdges+int(t.deg[n])]
}

// orientEdge fills VerticesOnEdge for edge e so that the first->second vertex
// direction matches k x n (n = normal from first to second cell).
func (m *Mesh) orientEdge(e, t1, t2 int32) {
	c1 := m.CellsOnEdge[2*e]
	c2 := m.CellsOnEdge[2*e+1]
	xe := m.XEdge[e]
	n := geom.ProjectToTangent(xe, m.XCell[c2].Sub(m.XCell[c1])).Normalize()
	t := xe.Cross(n) // k x n
	d := m.XVertex[t2].Sub(m.XVertex[t1])
	if d.Dot(t) >= 0 {
		m.VerticesOnEdge[2*e] = t1
		m.VerticesOnEdge[2*e+1] = t2
	} else {
		m.VerticesOnEdge[2*e] = t2
		m.VerticesOnEdge[2*e+1] = t1
	}
}

// buildCellAdjacency fills NEdgesOnCell, EdgesOnCell (CCW), CellsOnCell and
// VerticesOnCell.
func (m *Mesh) buildCellAdjacency(nodes *edgeTable) error {
	var buf [MaxEdges]int32
	for c := 0; c < m.NCells; c++ {
		es := buf[:copy(buf[:], nodes.edges(c))]
		n := len(es)
		if n < 5 {
			return fmt.Errorf("mesh: cell %d has %d edges", c, n)
		}
		m.NEdgesOnCell[c] = int32(n)
		// Sort edges counterclockwise by azimuth of the edge midpoint in
		// the cell's local (east, north) frame.
		xc := m.XCell[c]
		east, north := geom.East(xc), geom.North(xc)
		sort.Slice(es, func(i, j int) bool {
			return edgeAzimuth(xc, east, north, m.XEdge[es[i]]) < edgeAzimuth(xc, east, north, m.XEdge[es[j]])
		})
		base := c * MaxEdges
		for j, e := range es {
			m.EdgesOnCell[base+j] = e
			c1, c2 := m.CellsOnEdge[2*e], m.CellsOnEdge[2*e+1]
			if c1 == int32(c) {
				m.CellsOnCell[base+j] = c2
			} else {
				m.CellsOnCell[base+j] = c1
			}
		}
		// VerticesOnCell[j] = vertex shared by edges j and j+1.
		for j := 0; j < n; j++ {
			e1 := m.EdgesOnCell[base+j]
			e2 := m.EdgesOnCell[base+(j+1)%n]
			v, ok := sharedVertex(m, e1, e2)
			if !ok {
				return fmt.Errorf("mesh: cell %d consecutive edges %d,%d share no vertex", c, e1, e2)
			}
			m.VerticesOnCell[base+j] = v
		}
	}
	return nil
}

func edgeAzimuth(xc, east, north, xe geom.Vec3) float64 {
	d := geom.ProjectToTangent(xc, xe.Sub(xc))
	return math.Atan2(d.Dot(north), d.Dot(east))
}

func sharedVertex(m *Mesh, e1, e2 int32) (int32, bool) {
	a1, a2 := m.VerticesOnEdge[2*e1], m.VerticesOnEdge[2*e1+1]
	b1, b2 := m.VerticesOnEdge[2*e2], m.VerticesOnEdge[2*e2+1]
	switch {
	case a1 == b1 || a1 == b2:
		return a1, true
	case a2 == b1 || a2 == b2:
		return a2, true
	}
	return -1, false
}

// buildVertexAdjacency fills CellsOnVertex (CCW) and EdgesOnVertex, where
// EdgesOnVertex[v][j] joins CellsOnVertex[v][j] and CellsOnVertex[v][j+1].
func (m *Mesh) buildVertexAdjacency(tri *icosa.Triangulation, nodes *edgeTable) error {
	for v, t := range tri.Triangles {
		// Triangulation triangles are CCW already.
		base := v * VertexDegree
		for j := 0; j < 3; j++ {
			m.CellsOnVertex[base+j] = t[j]
		}
		for j := 0; j < 3; j++ {
			a, b := t[j], t[(j+1)%3]
			e := nodes.find(a, b)
			if e < 0 {
				return fmt.Errorf("mesh: vertex %d missing edge (%d,%d)", v, a, b)
			}
			m.EdgesOnVertex[base+j] = e
		}
	}
	return nil
}

// computeMetrics fills all lengths and areas from current positions.
func (m *Mesh) computeMetrics() {
	r := m.Radius
	r2 := r * r
	for e := 0; e < m.NEdges; e++ {
		c1, c2 := m.CellsOnEdge[2*e], m.CellsOnEdge[2*e+1]
		v1, v2 := m.VerticesOnEdge[2*e], m.VerticesOnEdge[2*e+1]
		m.DcEdge[e] = r * geom.ArcLength(m.XCell[c1], m.XCell[c2])
		m.DvEdge[e] = r * geom.ArcLength(m.XVertex[v1], m.XVertex[v2])
	}
	var poly [MaxEdges]geom.Vec3
	for c := 0; c < m.NCells; c++ {
		vs := m.CellVertices(int32(c))
		for j, v := range vs {
			poly[j] = m.XVertex[v]
		}
		m.AreaCell[c] = r2 * geom.SphericalPolygonArea(poly[:len(vs)])
	}
	for v := 0; v < m.NVertices; v++ {
		cs := m.VertexCells(int32(v))
		m.AreaTriangle[v] = r2 * geom.SphericalTriangleArea(m.XCell[cs[0]], m.XCell[cs[1]], m.XCell[cs[2]])
		// Kite for cell cs[j]: quadrilateral (cell center, midpoint of edge
		// into j, vertex position, midpoint of edge out of j). With the
		// EdgesOnVertex convention, edge j joins cells j and j+1, so cell j
		// touches edges j-1 (from cell j-1) and j (to cell j+1).
		es := m.VertexEdges(int32(v))
		for j := 0; j < VertexDegree; j++ {
			ein := es[(j+VertexDegree-1)%VertexDegree]
			eout := es[j]
			quad := []geom.Vec3{m.XCell[cs[j]], m.XEdge[eout], m.XVertex[v], m.XEdge[ein]}
			m.KiteAreasOnVertex[v*VertexDegree+j] = r2 * geom.SphericalPolygonArea(quad)
		}
	}
}

// computeSigns fills EdgeSignOnCell and EdgeSignOnVertex.
func (m *Mesh) computeSigns() {
	for c := 0; c < m.NCells; c++ {
		base := c * MaxEdges
		for j, e := range m.CellEdges(int32(c)) {
			if m.CellsOnEdge[2*e] == int32(c) {
				m.EdgeSignOnCell[base+j] = 1 // normal points out of c
			} else {
				m.EdgeSignOnCell[base+j] = -1
			}
		}
	}
	for v := 0; v < m.NVertices; v++ {
		base := v * VertexDegree
		for j, e := range m.VertexEdges(int32(v)) {
			// Positive normal direction (cell1 -> cell2) circulates CCW
			// around the vertex on its left, which is VerticesOnEdge[2e+1].
			if m.VerticesOnEdge[2*e+1] == int32(v) {
				m.EdgeSignOnVertex[base+j] = 1
			} else {
				m.EdgeSignOnVertex[base+j] = -1
			}
		}
	}
}

// lloydSweep moves each generator to the (optionally density-weighted)
// centroid of its Voronoi cell and rebuilds the dependent positions, keeping
// connectivity fixed.
func (m *Mesh) lloydSweep(density func(geom.Vec3) float64, omega float64) {
	newX := make([]geom.Vec3, m.NCells)
	var poly [MaxEdges]geom.Vec3
	for c := 0; c < m.NCells; c++ {
		vs := m.CellVertices(int32(c))
		for j, v := range vs {
			poly[j] = m.XVertex[v]
		}
		g := geom.WeightedPolygonCentroid(poly[:len(vs)], density)
		if omega == 1 {
			newX[c] = g
		} else {
			step := g.Sub(m.XCell[c]).Scale(omega)
			newX[c] = m.XCell[c].Add(step).Normalize()
		}
	}
	copy(m.XCell, newX)
	m.recomputeDerivedGeometry()
}

// recomputeDerivedGeometry refreshes vertex and edge positions after
// generators move (connectivity unchanged).
func (m *Mesh) recomputeDerivedGeometry() {
	for v := 0; v < m.NVertices; v++ {
		cs := m.VertexCells(int32(v))
		m.XVertex[v] = geom.Circumcenter(m.XCell[cs[0]], m.XCell[cs[1]], m.XCell[cs[2]])
	}
	for e := 0; e < m.NEdges; e++ {
		c1, c2 := m.CellsOnEdge[2*e], m.CellsOnEdge[2*e+1]
		m.XEdge[e] = m.XCell[c1].Add(m.XCell[c2]).Normalize()
	}
}

// computeEdgeFrames fills EdgeNormal, EdgeTangent and AngleEdge.
func (m *Mesh) computeEdgeFrames() {
	for e := 0; e < m.NEdges; e++ {
		c1, c2 := m.CellsOnEdge[2*e], m.CellsOnEdge[2*e+1]
		xe := m.XEdge[e]
		n := geom.ProjectToTangent(xe, m.XCell[c2].Sub(m.XCell[c1])).Normalize()
		m.EdgeNormal[e] = n
		m.EdgeTangent[e] = xe.Cross(n)
		zonal, meridional := geom.TangentComponents(xe, n)
		m.AngleEdge[e] = math.Atan2(meridional, zonal)
	}
}

func (m *Mesh) computeLatLon() {
	for c := 0; c < m.NCells; c++ {
		m.LatCell[c] = m.XCell[c].Lat()
		m.LonCell[c] = m.XCell[c].Lon()
	}
	for e := 0; e < m.NEdges; e++ {
		m.LatEdge[e] = m.XEdge[e].Lat()
		m.LonEdge[e] = m.XEdge[e].Lon()
	}
	for v := 0; v < m.NVertices; v++ {
		m.LatVertex[v] = m.XVertex[v].Lat()
	}
}
