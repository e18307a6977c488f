// Package partition decomposes an SCVT mesh into the per-process domains of
// the distributed (MPI-style) runs: contiguous cell partitions via recursive
// coordinate bisection, multi-layer halos, and local mesh extraction with
// global<->local index maps. It is the stand-in for the METIS decomposition
// MPAS uses; partition quality only shifts constants, not the scaling
// behaviour the paper's Figures 8 and 9 probe.
package partition

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// Partition is a disjoint assignment of every global cell to one of P parts.
type Partition struct {
	NParts int
	Owner  []int32 // global cell -> part
	Cells  [][]int32
}

// Bisect partitions the mesh's cells into nparts contiguous chunks by
// recursive coordinate bisection of the cell-center unit vectors.
func Bisect(m *mesh.Mesh, nparts int) (*Partition, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts %d < 1", nparts)
	}
	if nparts > m.NCells {
		return nil, fmt.Errorf("partition: nparts %d exceeds %d cells", nparts, m.NCells)
	}
	p := &Partition{
		NParts: nparts,
		Owner:  make([]int32, m.NCells),
		Cells:  make([][]int32, nparts),
	}
	all := make([]int32, m.NCells)
	for i := range all {
		all[i] = int32(i)
	}
	var rec func(cells []int32, lo, hi int)
	rec = func(cells []int32, lo, hi int) {
		parts := hi - lo
		if parts == 1 {
			for _, c := range cells {
				p.Owner[c] = int32(lo)
			}
			p.Cells[lo] = append([]int32(nil), cells...)
			return
		}
		// Split along the coordinate with the largest spread.
		var min, max geom.Vec3
		min = geom.V(math.Inf(1), math.Inf(1), math.Inf(1))
		max = geom.V(math.Inf(-1), math.Inf(-1), math.Inf(-1))
		for _, c := range cells {
			x := m.XCell[c]
			min = geom.V(math.Min(min.X, x.X), math.Min(min.Y, x.Y), math.Min(min.Z, x.Z))
			max = geom.V(math.Max(max.X, x.X), math.Max(max.Y, x.Y), math.Max(max.Z, x.Z))
		}
		d := max.Sub(min)
		key := func(c int32) float64 { return m.XCell[c].X }
		if d.Y >= d.X && d.Y >= d.Z {
			key = func(c int32) float64 { return m.XCell[c].Y }
		} else if d.Z >= d.X && d.Z >= d.Y {
			key = func(c int32) float64 { return m.XCell[c].Z }
		}
		sort.Slice(cells, func(i, j int) bool { return key(cells[i]) < key(cells[j]) })
		leftParts := parts / 2
		cut := len(cells) * leftParts / parts
		rec(cells[:cut], lo, lo+leftParts)
		rec(cells[cut:], lo+leftParts, hi)
	}
	rec(all, 0, nparts)
	return p, nil
}

// FromOwner reconstructs a Partition from a bare owner map (the form rank 0
// distributes during the dist rendezvous). Cell lists come out in ascending
// global order — NOT the recursion order Bisect produces — so every process
// of a distributed run must build its Partition through FromOwner (rank 0
// included) for the local numberings to agree.
func FromOwner(owner []int32, nparts int) (*Partition, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts %d < 1", nparts)
	}
	p := &Partition{
		NParts: nparts,
		Owner:  append([]int32(nil), owner...),
		Cells:  make([][]int32, nparts),
	}
	for c, o := range owner {
		if o < 0 || int(o) >= nparts {
			return nil, fmt.Errorf("partition: cell %d has owner %d outside [0,%d)", c, o, nparts)
		}
		p.Cells[o] = append(p.Cells[o], int32(c))
	}
	for part, cells := range p.Cells {
		if len(cells) == 0 {
			return nil, fmt.Errorf("partition: part %d owns no cells", part)
		}
	}
	return p, nil
}

// Validate checks that the partition covers every cell exactly once.
func (p *Partition) Validate(m *mesh.Mesh) error {
	seen := make([]bool, m.NCells)
	total := 0
	for part, cells := range p.Cells {
		for _, c := range cells {
			if seen[c] {
				return fmt.Errorf("partition: cell %d in two parts", c)
			}
			seen[c] = true
			if p.Owner[c] != int32(part) {
				return fmt.Errorf("partition: owner mismatch for cell %d", c)
			}
			total++
		}
	}
	if total != m.NCells {
		return fmt.Errorf("partition: covers %d of %d cells", total, m.NCells)
	}
	return nil
}

// Imbalance returns max part size over mean part size.
func (p *Partition) Imbalance() float64 {
	maxSz, total := 0, 0
	for _, cells := range p.Cells {
		if len(cells) > maxSz {
			maxSz = len(cells)
		}
		total += len(cells)
	}
	mean := float64(total) / float64(p.NParts)
	return float64(maxSz) / mean
}

// Halo computes the cells at BFS distance 1..layers from the owned set of
// one part, layer by layer.
func (p *Partition) Halo(m *mesh.Mesh, part, layers int) [][]int32 {
	inSet := make([]bool, m.NCells)
	for _, c := range p.Cells[part] {
		inSet[c] = true
	}
	frontier := p.Cells[part]
	var halos [][]int32
	for l := 0; l < layers; l++ {
		var next []int32
		for _, c := range frontier {
			for _, nb := range m.CellNeighbors(c) {
				if !inSet[nb] {
					inSet[nb] = true
					next = append(next, nb)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		halos = append(halos, next)
		frontier = next
	}
	return halos
}

// HaloCellsModel estimates the halo size of one layer around a compact
// patch of n cells: the patch boundary is ~ 2*sqrt(pi*n) cells long on a
// quasi-uniform mesh. Used for paper-scale meshes too large to build; tests
// validate it against real partitions.
func HaloCellsModel(cellsPerPart int, layer int) int {
	return int(2*math.Sqrt(math.Pi*float64(cellsPerPart))) + 6*layer
}
