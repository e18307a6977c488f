// Package halo defines the halo-exchange pattern of the distributed
// shallow-water runs: which local cell and edge slots each rank packs into
// its outgoing per-peer messages and which slots it fills from incoming
// ones. The rank runtime (internal/dist) binds it to its links, and the
// tests and benchmarks of the pack/unpack cost use it directly.
//
// Send lists on the owning rank are constructed in exactly the same order
// as the receiving rank's recv lists, so halo messages need no per-element
// headers: a message is the concatenation [cells..., edges...] in list
// order, and both sides agree on its length a priori (SendLen/RecvLen).
package halo

import (
	"fmt"
	"sort"

	"repro/internal/mesh"
	"repro/internal/partition"
)

// ExchangeSpec is one rank's halo-exchange pattern: for each peer, the local
// cell and edge slots to pack into outgoing messages and the slots to fill
// from incoming ones.
type ExchangeSpec struct {
	Rank      int
	Peers     []int
	SendCells map[int][]int32
	RecvCells map[int][]int32
	SendEdges map[int][]int32
	RecvEdges map[int][]int32
}

// HaloBytes returns the per-exchange message volume of this rank (one cell
// field plus one edge field, both directions, 8 bytes per value).
func (p *ExchangeSpec) HaloBytes() int {
	n := 0
	for _, peer := range p.Peers {
		n += len(p.SendCells[peer]) + len(p.RecvCells[peer])
		n += len(p.SendEdges[peer]) + len(p.RecvEdges[peer])
	}
	return n * 8
}

// SendLen returns the number of float64 values in one outgoing message to
// peer (cells then edges).
func (p *ExchangeSpec) SendLen(peer int) int {
	return len(p.SendCells[peer]) + len(p.SendEdges[peer])
}

// RecvLen returns the number of float64 values in one incoming message from
// peer.
func (p *ExchangeSpec) RecvLen(peer int) int {
	return len(p.RecvCells[peer]) + len(p.RecvEdges[peer])
}

// PackSend fills buf (which must have SendLen(peer) capacity) with the
// outgoing message for peer: owned cell values then owned edge values, in
// list order. Returns buf sliced to the message length.
func (p *ExchangeSpec) PackSend(peer int, cellField, edgeField, buf []float64) []float64 {
	sc, se := p.SendCells[peer], p.SendEdges[peer]
	buf = buf[:len(sc)+len(se)]
	for i, lc := range sc {
		buf[i] = cellField[lc]
	}
	off := len(sc)
	for i, le := range se {
		buf[off+i] = edgeField[le]
	}
	return buf
}

// UnpackRecv scatters an incoming message from peer into the halo slots of
// cellField and edgeField. buf must hold exactly RecvLen(peer) values.
func (p *ExchangeSpec) UnpackRecv(peer int, buf, cellField, edgeField []float64) {
	rc, re := p.RecvCells[peer], p.RecvEdges[peer]
	for i, lc := range rc {
		cellField[lc] = buf[i]
	}
	off := len(rc)
	for i, le := range re {
		edgeField[le] = buf[off+i]
	}
}

// Validate cross-checks a full set of specs: every send list must have the
// same length as the peer's matching recv list, and peer lists must be
// symmetric.
func Validate(specs []*ExchangeSpec) error {
	for r, p := range specs {
		if p.Rank != r {
			return fmt.Errorf("halo: spec %d carries rank %d", r, p.Rank)
		}
		for _, peer := range p.Peers {
			if peer < 0 || peer >= len(specs) || peer == r {
				return fmt.Errorf("halo: rank %d has invalid peer %d", r, peer)
			}
			q := specs[peer]
			if got, want := len(p.SendCells[peer]), len(q.RecvCells[r]); got != want {
				return fmt.Errorf("halo: rank %d sends %d cells to %d, peer expects %d", r, got, peer, want)
			}
			if got, want := len(p.SendEdges[peer]), len(q.RecvEdges[r]); got != want {
				return fmt.Errorf("halo: rank %d sends %d edges to %d, peer expects %d", r, got, peer, want)
			}
			found := false
			for _, pr := range q.Peers {
				if pr == r {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("halo: rank %d lists peer %d but not vice versa", r, peer)
			}
		}
	}
	return nil
}

// BuildSpecs constructs consistent exchange specs for all ranks of a
// decomposition: rank r receives every halo cell from its owner and every
// non-owned local edge from the edge's owner, and the owner's send lists
// are built in the receiver's local order.
func BuildSpecs(g *mesh.Mesh, locals []*partition.Local) []*ExchangeSpec {
	specs := make([]*ExchangeSpec, len(locals))
	for r := range specs {
		specs[r] = &ExchangeSpec{
			Rank:      r,
			SendCells: map[int][]int32{}, RecvCells: map[int][]int32{},
			SendEdges: map[int][]int32{}, RecvEdges: map[int][]int32{},
		}
	}
	for r, l := range locals {
		// Halo cells, in local order, grouped by owner.
		for lc := l.NOwnedCells; lc < len(l.CellL2G); lc++ {
			o := int(l.CellOwner[lc])
			specs[r].RecvCells[o] = append(specs[r].RecvCells[o], int32(lc))
			gcell := l.CellL2G[lc]
			specs[o].SendCells[r] = append(specs[o].SendCells[r], locals[o].CellG2L[gcell])
		}
		// Non-owned local edges.
		for le, ge := range l.EdgeL2G {
			o := int(l.EdgeOwner[le])
			if o == r {
				continue
			}
			specs[r].RecvEdges[o] = append(specs[r].RecvEdges[o], int32(le))
			specs[o].SendEdges[r] = append(specs[o].SendEdges[r], locals[o].EdgeG2L[ge])
		}
	}
	for r, p := range specs {
		peers := map[int]bool{}
		for o := range p.RecvCells {
			peers[o] = true
		}
		for o := range p.SendCells {
			peers[o] = true
		}
		for o := range p.RecvEdges {
			peers[o] = true
		}
		for o := range p.SendEdges {
			peers[o] = true
		}
		delete(peers, r)
		for o := range peers {
			p.Peers = append(p.Peers, o)
		}
		sort.Ints(p.Peers)
	}
	return specs
}
