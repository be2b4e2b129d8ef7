package graph

// distItem is a priority-queue entry of a Dijkstra search.
type distItem struct {
	dist float64
	node int32
}

// distHeap is the binary min-heap by dist under every Dijkstra loop in
// the module (MCFSolver's reduced-cost phases, PathSolver's Weight
// searches and its Tree, which Garg–Könemann runs on). It
// performs exactly container/heap's comparisons and swaps — strict
// less, so equal keys keep their insertion layering — because the pop
// order among equal distances decides tie-breaks and is therefore part
// of every result. The backing array is reused across searches.
type distHeap []distItem

// push appends an item and sifts it up, as container/heap's Push does.
func (p *distHeap) push(node int32, d float64) {
	h := append(*p, distItem{node: node, dist: d})
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*p = h
}

// pop removes the minimum item as container/heap's Pop does: swap root
// and last, sift the root down over the shortened heap (left child wins
// ties), return the displaced last.
func (p *distHeap) pop() distItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*p = h[:n]
	return it
}
