package partition

import (
	"sort"

	"repro/internal/mesh"
)

// DepthUnbounded is the halo distance assigned to entities no stencil path
// connects to an exchanged entity (everything, in a single-rank run).
const DepthUnbounded = int32(1 << 30)

// Local is one process's view of the global mesh: its owned cells followed
// by halo layers, with all connectivity remapped to local indices.
// References that leave the local set are clamped to safe local indices (or
// zero-weight stencil slots); the resulting garbage is confined to the
// outermost halo layer, which is overwritten by halo exchange before any
// owned value can consume it (the halo is deeper than the per-substage
// dependency radius of the RK-4 kernels).
type Local struct {
	Part int
	M    *mesh.Mesh

	NOwnedCells int // local cells [0, NOwnedCells) are owned

	CellL2G []int32
	EdgeL2G []int32
	VertL2G []int32
	// CellG2L and EdgeG2L are indexed by global cell and edge; -1 marks an
	// entity that is not local.
	CellG2L []int32
	EdgeG2L []int32

	// EdgeOwner[le] is the part owning local edge le (the owner of the
	// first global cell of the edge).
	EdgeOwner []int32
	// CellOwner[lc] is the part owning local cell lc.
	CellOwner []int32

	// CellDepth[lc] is the halo distance of local cell lc: the length of the
	// shortest stencil path (through the union of every kernel adjacency —
	// cellsOnCell, edgesOnCell/cellsOnEdge, verticesOnCell/cellsOnVertex,
	// edgesOnEdge, verticesOnEdge/edgesOnVertex) connecting it to an entity
	// the halo exchange overwrites (a halo cell or a non-owned edge; those
	// are depth 0). Extract orders entities by descending depth within each
	// class — owned cells, then halo cells; all edges; all vertices — so
	// every depth array is non-increasing and "the entities safe to compute
	// while an exchange is in flight" is a contiguous prefix (InteriorCells
	// and friends). Reordering is arithmetic-neutral: per-entity stencil
	// gather order is untouched, so owned values stay bitwise identical to a
	// serial run.
	CellDepth []int32
	EdgeDepth []int32
	VertDepth []int32
}

// InteriorCells returns the number of leading local cells at halo distance
// strictly greater than t. A kernel writing cells whose inputs are stale
// within distance t can safely compute local cells [0, InteriorCells(t))
// while the exchange is in flight, deferring the rest until it lands.
func (l *Local) InteriorCells(t int) int {
	return sort.Search(len(l.CellDepth), func(i int) bool { return l.CellDepth[i] <= int32(t) })
}

// InteriorEdges is InteriorCells for the edge index space.
func (l *Local) InteriorEdges(t int) int {
	return sort.Search(len(l.EdgeDepth), func(i int) bool { return l.EdgeDepth[i] <= int32(t) })
}

// InteriorVertices is InteriorCells for the vertex index space.
func (l *Local) InteriorVertices(t int) int {
	return sort.Search(len(l.VertDepth), func(i int) bool { return l.VertDepth[i] <= int32(t) })
}

// Extract builds the local view of part with the given halo depth.
func Extract(g *mesh.Mesh, p *Partition, part, layers int) *Local {
	l := &Local{
		Part:    part,
		CellG2L: absent(g.NCells),
		EdgeG2L: absent(g.NEdges),
	}

	// --- cells: owned, then halo layers ----------------------------------
	owned := p.Cells[part]
	l.NOwnedCells = len(owned)
	l.CellL2G = append(l.CellL2G, owned...)
	for _, layer := range p.Halo(g, part, layers) {
		l.CellL2G = append(l.CellL2G, layer...)
	}
	for lc, gc := range l.CellL2G {
		l.CellG2L[gc] = int32(lc)
	}

	// --- edges: every global edge with both cells local ------------------
	for _, gc := range l.CellL2G {
		for _, ge := range g.CellEdges(gc) {
			if l.EdgeG2L[ge] >= 0 {
				continue
			}
			c1, c2 := g.CellsOnEdge[2*ge], g.CellsOnEdge[2*ge+1]
			if l.CellG2L[c1] >= 0 && l.CellG2L[c2] >= 0 {
				l.EdgeG2L[ge] = int32(len(l.EdgeL2G))
				l.EdgeL2G = append(l.EdgeL2G, ge)
			}
		}
	}

	// --- vertices: every vertex of a local edge --------------------------
	vertG2L := absent(g.NVertices)
	for _, ge := range l.EdgeL2G {
		for k := int32(0); k < 2; k++ {
			gv := g.VerticesOnEdge[2*ge+k]
			if vertG2L[gv] < 0 {
				vertG2L[gv] = int32(len(l.VertL2G))
				l.VertL2G = append(l.VertL2G, gv)
			}
		}
	}

	// --- halo depths + interior-first ordering ---------------------------
	l.computeDepths(g, p, vertG2L)
	l.reorderByDepth(vertG2L)

	l.M = l.buildLocalMesh(g, vertG2L)

	l.CellOwner = make([]int32, len(l.CellL2G))
	for lc, gc := range l.CellL2G {
		l.CellOwner[lc] = p.Owner[gc]
	}
	l.EdgeOwner = make([]int32, len(l.EdgeL2G))
	for le, ge := range l.EdgeL2G {
		l.EdgeOwner[le] = p.Owner[g.CellsOnEdge[2*ge]]
	}
	return l
}

// absent returns a global-to-local map of n entities, none of them local.
func absent(n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// computeDepths runs a multi-source BFS over the union stencil adjacency of
// all local entities, seeded at the entities the halo exchange overwrites
// (halo cells, non-owned edges). It walks the GLOBAL adjacency arrays
// restricted to the local sets — never the clamped local mesh, whose
// missing-neighbor slots alias entity 0 and would fabricate shortcuts.
func (l *Local) computeDepths(g *mesh.Mesh, p *Partition, vertG2L []int32) {
	nc, ne, nv := len(l.CellL2G), len(l.EdgeL2G), len(l.VertL2G)
	// One flat id space: cell lc -> lc, edge le -> nc+le, vertex lv -> nc+ne+lv.
	d := make([]int32, nc+ne+nv)
	for i := range d {
		d[i] = DepthUnbounded
	}
	q := make([]int32, 0, nc+ne+nv)
	add := func(id, dep int32) {
		if d[id] > dep {
			d[id] = dep
			q = append(q, id)
		}
	}
	for lc := l.NOwnedCells; lc < nc; lc++ {
		add(int32(lc), 0)
	}
	for le, ge := range l.EdgeL2G {
		if p.Owner[g.CellsOnEdge[2*ge]] != int32(l.Part) {
			add(int32(nc+le), 0)
		}
	}
	for head := 0; head < len(q); head++ {
		id := q[head]
		nd := d[id] + 1
		switch {
		case id < int32(nc): // cell
			gc := l.CellL2G[id]
			base := int(gc) * mesh.MaxEdges
			for j := 0; j < int(g.NEdgesOnCell[gc]); j++ {
				if lcc := l.CellG2L[g.CellsOnCell[base+j]]; lcc >= 0 {
					add(lcc, nd)
				}
				if le := l.EdgeG2L[g.EdgesOnCell[base+j]]; le >= 0 {
					add(int32(nc)+le, nd)
				}
				if lv := vertG2L[g.VerticesOnCell[base+j]]; lv >= 0 {
					add(int32(nc+ne)+lv, nd)
				}
			}
		case id < int32(nc+ne): // edge
			ge := int(l.EdgeL2G[id-int32(nc)])
			for k := 0; k < 2; k++ {
				if lcc := l.CellG2L[g.CellsOnEdge[2*ge+k]]; lcc >= 0 {
					add(lcc, nd)
				}
				if lv := vertG2L[g.VerticesOnEdge[2*ge+k]]; lv >= 0 {
					add(int32(nc+ne)+lv, nd)
				}
			}
			base := ge * mesh.MaxEdgesOnEdge
			for j := 0; j < int(g.NEdgesOnEdge[ge]); j++ {
				if le2 := l.EdgeG2L[g.EdgesOnEdge[base+j]]; le2 >= 0 {
					add(int32(nc)+le2, nd)
				}
			}
		default: // vertex
			gv := l.VertL2G[id-int32(nc+ne)]
			base := int(gv) * mesh.VertexDegree
			for j := 0; j < mesh.VertexDegree; j++ {
				if lcc := l.CellG2L[g.CellsOnVertex[base+j]]; lcc >= 0 {
					add(lcc, nd)
				}
				if le2 := l.EdgeG2L[g.EdgesOnVertex[base+j]]; le2 >= 0 {
					add(int32(nc)+le2, nd)
				}
			}
		}
	}
	l.CellDepth = d[:nc:nc]
	l.EdgeDepth = d[nc : nc+ne : nc+ne]
	l.VertDepth = d[nc+ne:]
}

// reorderByDepth stably permutes each entity class to descending halo depth
// (owned cells keep their [0, NOwnedCells) block; halo cells are all depth 0
// and stay behind them) and rewrites the L2G/G2L maps, vertG2L included,
// and the depth arrays.
func (l *Local) reorderByDepth(vertG2L []int32) {
	// Cells: only the owned block is permuted (halo cells are all sources).
	sortByDepth(l.CellDepth[:l.NOwnedCells], l.CellL2G[:l.NOwnedCells])
	for lc, gc := range l.CellL2G {
		l.CellG2L[gc] = int32(lc)
	}
	sortByDepth(l.EdgeDepth, l.EdgeL2G)
	for le, ge := range l.EdgeL2G {
		l.EdgeG2L[ge] = int32(le)
	}
	sortByDepth(l.VertDepth, l.VertL2G)
	for lv, gv := range l.VertL2G {
		vertG2L[gv] = int32(lv)
	}
}

// sortByDepth stably sorts depth, and l2g alongside it, by descending depth.
// Depths are BFS distances, at most the entity count, plus DepthUnbounded,
// so a counting sort over max+2 buckets does it in linear time.
func sortByDepth(depth, l2g []int32) {
	maxd := int32(-1)
	for _, d := range depth {
		if d != DepthUnbounded && d > maxd {
			maxd = d
		}
	}
	// Bucket 0 holds DepthUnbounded, bucket 1+maxd-d holds depth d.
	bucket := func(d int32) int32 {
		if d == DepthUnbounded {
			return 0
		}
		return 1 + maxd - d
	}
	next := make([]int, maxd+3)
	for _, d := range depth {
		next[bucket(d)+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	nd := make([]int32, len(depth))
	ng := make([]int32, len(depth))
	for i, d := range depth {
		b := bucket(d)
		nd[next[b]] = d
		ng[next[b]] = l2g[i]
		next[b]++
	}
	copy(depth, nd)
	copy(l2g, ng)
}

// buildLocalMesh assembles the local mesh arrays from the global mesh.
func (l *Local) buildLocalMesh(g *mesh.Mesh, vertG2L []int32) *mesh.Mesh {
	nc, ne, nv := len(l.CellL2G), len(l.EdgeL2G), len(l.VertL2G)
	m := mesh.NewEmpty(g.Radius, nc, ne, nv, g.Level)

	for lc, gc := range l.CellL2G {
		m.XCell[lc] = g.XCell[gc]
		m.LatCell[lc] = g.LatCell[gc]
		m.LonCell[lc] = g.LonCell[gc]
		m.AreaCell[lc] = g.AreaCell[gc]
		m.NEdgesOnCell[lc] = g.NEdgesOnCell[gc]
		gbase := int(gc) * mesh.MaxEdges
		lbase := lc * mesh.MaxEdges
		for j := 0; j < int(g.NEdgesOnCell[gc]); j++ {
			// Edges of the cell: clamp missing edges to slot-self with the
			// convention edge 0 (garbage confined to outer halo).
			if le := l.EdgeG2L[g.EdgesOnCell[gbase+j]]; le >= 0 {
				m.EdgesOnCell[lbase+j] = le
			} else {
				m.EdgesOnCell[lbase+j] = 0
			}
			if lcc := l.CellG2L[g.CellsOnCell[gbase+j]]; lcc >= 0 {
				m.CellsOnCell[lbase+j] = lcc
			} else {
				m.CellsOnCell[lbase+j] = int32(lc)
			}
			if lv := vertG2L[g.VerticesOnCell[gbase+j]]; lv >= 0 {
				m.VerticesOnCell[lbase+j] = lv
			} else {
				m.VerticesOnCell[lbase+j] = 0
			}
			m.EdgeSignOnCell[lbase+j] = g.EdgeSignOnCell[gbase+j]
		}
	}

	for le, ge := range l.EdgeL2G {
		m.XEdge[le] = g.XEdge[ge]
		m.LatEdge[le] = g.LatEdge[ge]
		m.LonEdge[le] = g.LonEdge[ge]
		m.DcEdge[le] = g.DcEdge[ge]
		m.DvEdge[le] = g.DvEdge[ge]
		m.AngleEdge[le] = g.AngleEdge[ge]
		m.EdgeNormal[le] = g.EdgeNormal[ge]
		m.EdgeTangent[le] = g.EdgeTangent[ge]
		m.CellsOnEdge[2*le] = l.CellG2L[g.CellsOnEdge[2*ge]]
		m.CellsOnEdge[2*le+1] = l.CellG2L[g.CellsOnEdge[2*ge+1]]
		m.VerticesOnEdge[2*le] = vertG2L[g.VerticesOnEdge[2*ge]]
		m.VerticesOnEdge[2*le+1] = vertG2L[g.VerticesOnEdge[2*ge+1]]
		gbase := int(ge) * mesh.MaxEdgesOnEdge
		lbase := le * mesh.MaxEdgesOnEdge
		m.NEdgesOnEdge[le] = g.NEdgesOnEdge[ge]
		for j := 0; j < int(g.NEdgesOnEdge[ge]); j++ {
			if leoe := l.EdgeG2L[g.EdgesOnEdge[gbase+j]]; leoe >= 0 {
				m.EdgesOnEdge[lbase+j] = leoe
				m.WeightsOnEdge[lbase+j] = g.WeightsOnEdge[gbase+j]
			} else {
				// Missing stencil member: zero weight, safe index.
				m.EdgesOnEdge[lbase+j] = 0
				m.WeightsOnEdge[lbase+j] = 0
			}
		}
	}

	for lv, gv := range l.VertL2G {
		m.XVertex[lv] = g.XVertex[gv]
		m.LatVertex[lv] = g.LatVertex[gv]
		m.AreaTriangle[lv] = g.AreaTriangle[gv]
		gbase := int(gv) * mesh.VertexDegree
		lbase := lv * mesh.VertexDegree
		for j := 0; j < mesh.VertexDegree; j++ {
			if lc := l.CellG2L[g.CellsOnVertex[gbase+j]]; lc >= 0 {
				m.CellsOnVertex[lbase+j] = lc
			} else {
				m.CellsOnVertex[lbase+j] = 0
			}
			if le := l.EdgeG2L[g.EdgesOnVertex[gbase+j]]; le >= 0 {
				m.EdgesOnVertex[lbase+j] = le
			} else {
				m.EdgesOnVertex[lbase+j] = 0
			}
			m.KiteAreasOnVertex[lbase+j] = g.KiteAreasOnVertex[gbase+j]
			m.EdgeSignOnVertex[lbase+j] = g.EdgeSignOnVertex[gbase+j]
		}
	}
	return m
}
