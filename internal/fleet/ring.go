package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// defaultReplicas is the number of virtual points each node contributes
// to the ring. 128 keeps the per-node load imbalance under a few percent
// for realistic fleet sizes while the full point list stays tiny.
const defaultReplicas = 128

// Ring is a consistent-hash ring over node IDs, keyed by the module
// cache key (server.CacheKey). A key's primary node is stable under
// membership churn: adding or removing one node remaps only ~1/N of the
// keyspace, so the session caches on the surviving nodes stay warm —
// which is the whole point of routing by cache key.
//
// Ring is not safe for concurrent use; the Coordinator serializes
// access under its own lock.
type Ring struct {
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: make(map[string]struct{})}
}

// ringHash positions a string on the ring. SHA-256 keeps placement
// uniform and identical across processes, platforms and Go versions: a
// restarted coordinator routes every key where the last one did.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < defaultReplicas; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		r.points = append(r.points, ringPoint{
			hash: ringHash(node + "\x00" + string(buf[:])),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // total order on collisions
	})
}

// Remove drops a node and all its virtual points (idempotent).
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len is the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Sequence returns every distinct node in ring order starting from the
// key's primary, the first virtual point at or clockwise of the key's
// position. This is the failover order: a job excluded from its
// primary moves to the next successor, never back.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]struct{}, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
