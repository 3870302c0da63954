package fleet

import (
	"fmt"
	"testing"
)

func ringWith(nodes ...string) *Ring {
	r := NewRing()
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func TestRingDeterministicPlacement(t *testing.T) {
	a := ringWith("node-00", "node-01", "node-02", "node-03")
	// Same members added in a different order must produce the same map.
	b := ringWith("node-03", "node-01", "node-00", "node-02")
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if pa, pb := a.Sequence(key)[0], b.Sequence(key)[0]; pa != pb {
			t.Fatalf("key %s: primary %s vs %s under different insertion order", key, pa, pb)
		}
	}
}

func TestRingSequenceDistinctAndStartsAtPrimary(t *testing.T) {
	r := ringWith("a", "b", "c", "d", "e")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		if len(seq) != 5 {
			t.Fatalf("key %s: sequence has %d nodes, want 5", key, len(seq))
		}
		// The primary owns the first virtual point at or clockwise of
		// the key's position.
		h, primary := ringHash(key), r.points[0].node
		for i := len(r.points) - 1; i >= 0; i-- {
			if r.points[i].hash >= h {
				primary = r.points[i].node
			}
		}
		if seq[0] != primary {
			t.Fatalf("key %s: sequence starts at %s, primary is %s", key, seq[0], primary)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("key %s: duplicate node %s in sequence %v", key, n, seq)
			}
			seen[n] = true
		}
	}
}

func TestRingBalance(t *testing.T) {
	const nodes, keys = 8, 10000
	r := NewRing()
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%02d", i))
	}
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Sequence(fmt.Sprintf("key-%05d", i))[0]]++
	}
	want := keys / nodes
	for n, c := range counts {
		// 128 virtual points keep imbalance well under 2x.
		if c < want/2 || c > want*2 {
			t.Errorf("node %s owns %d of %d keys (expected ~%d)", n, c, keys, want)
		}
	}
}

// The consistent-hashing contract: membership change of one node remaps
// only about 1/N of the keyspace, and every remap after a removal moves
// keys OFF the removed node, never between survivors.
func TestRingMinimalRemap(t *testing.T) {
	const keys = 10000
	base := ringWith("n0", "n1", "n2", "n3")
	before := make([]string, keys)
	for i := range before {
		before[i] = base.Sequence(fmt.Sprintf("key-%05d", i))[0]
	}

	t.Run("add", func(t *testing.T) {
		r := ringWith("n0", "n1", "n2", "n3")
		r.Add("n4")
		moved := 0
		for i := 0; i < keys; i++ {
			after := r.Sequence(fmt.Sprintf("key-%05d", i))[0]
			if after != before[i] {
				moved++
				if after != "n4" {
					t.Fatalf("key-%05d moved %s→%s, not to the new node", i, before[i], after)
				}
			}
		}
		// Ideal is keys/5 = 2000; allow generous statistical slack.
		if moved < keys/10 || moved > keys*3/10 {
			t.Errorf("adding 1 of 5 nodes remapped %d/%d keys, want ~%d", moved, keys, keys/5)
		}
	})

	t.Run("remove", func(t *testing.T) {
		r := ringWith("n0", "n1", "n2", "n3")
		r.Remove("n3")
		moved := 0
		for i := 0; i < keys; i++ {
			after := r.Sequence(fmt.Sprintf("key-%05d", i))[0]
			if after != before[i] {
				moved++
				if before[i] != "n3" {
					t.Fatalf("key-%05d moved %s→%s although its owner survived", i, before[i], after)
				}
			}
		}
		// n3 owned ~keys/4; every one of its keys (and only those) moved.
		if moved < keys/8 || moved > keys*3/8 {
			t.Errorf("removing 1 of 4 nodes remapped %d/%d keys, want ~%d", moved, keys, keys/4)
		}
	})
}

func TestRingEmptyAndIdempotent(t *testing.T) {
	r := NewRing()
	if s := r.Sequence("k"); s != nil {
		t.Fatalf("empty ring sequence = %v, want nil", s)
	}
	r.Add("a")
	r.Add("a")
	if got := len(r.points); got != defaultReplicas {
		t.Fatalf("double Add left %d points, want %d", got, defaultReplicas)
	}
	r.Remove("b") // not a member: no-op
	r.Remove("a")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatalf("ring not empty after removal: %d nodes, %d points", r.Len(), len(r.points))
	}
}
