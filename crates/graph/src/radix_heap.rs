//! A monotone radix heap over the bit patterns of non-negative `f64` keys.
//!
//! Read as a `u64`, the bit pattern of a non-negative `f64` orders like its
//! value. Dijkstra with non-negative weights never pushes a key below the
//! last one popped, and that is all a radix heap needs to pop keys in
//! non-decreasing order. Bucket 0 holds the keys equal to `last`, the key
//! of the last pop; bucket `b >= 1` holds the keys whose highest bit that
//! differs from `last` is bit `b - 1`, i.e. bucket `64 - lzcnt(key ^ last)`.
//! A pop that finds bucket 0 empty first moves `last` up to the minimum of
//! the lowest non-empty bucket and redistributes that bucket; every key in
//! it lands in a strictly lower bucket, so a key moves at most 64 times.

use crate::graph::NodeId;

/// Min-queue of `(key, node)` for keys that never go below the last pop.
#[derive(Debug)]
pub(crate) struct RadixHeap {
    buckets: [Vec<(u64, NodeId)>; 65],
    /// Bit `b - 1` is set while `buckets[b]` is non-empty, for `b >= 1`.
    occupied: u64,
    /// Bits of the last key popped; +0.0 on an empty heap.
    last: u64,
}

impl RadixHeap {
    pub(crate) fn new() -> Self {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
        }
    }

    /// Empties the heap and resets `last` to +0.0, keeping the buckets'
    /// capacity.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = 0;
        self.last = 0;
    }

    /// Queues `node` at `key`, which must be a non-negative, non-NaN value
    /// no smaller than the last key popped.
    #[inline]
    pub(crate) fn push(&mut self, key: f64, node: NodeId) {
        debug_assert!(
            key.is_sign_positive() && key >= f64::from_bits(self.last),
            "radix heap push of {key} below the last pop {}",
            f64::from_bits(self.last)
        );
        self.insert(key.to_bits(), node);
    }

    /// Removes an entry of the smallest key.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, NodeId)> {
        if self.buckets[0].is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize + 1;
            self.occupied &= !(1 << (b - 1));
            let mut moving = std::mem::take(&mut self.buckets[b]);
            self.last = moving
                .iter()
                .map(|&(k, _)| k)
                .min()
                .expect("bucket is occupied");
            for &(k, v) in &moving {
                self.insert(k, v);
            }
            moving.clear();
            self.buckets[b] = moving;
        }
        self.buckets[0].pop().map(|(k, v)| (f64::from_bits(k), v))
    }

    #[inline]
    fn insert(&mut self, bits: u64, node: NodeId) {
        let b = 64 - (bits ^ self.last).leading_zeros() as usize;
        if b != 0 {
            self.occupied |= 1 << (b - 1);
        }
        self.buckets[b].push((bits, node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every entry; asserts the keys never decrease.
    fn drain(heap: &mut RadixHeap) -> Vec<(f64, NodeId)> {
        let mut out: Vec<(f64, NodeId)> = Vec::new();
        while let Some((k, v)) = heap.pop() {
            if let Some(&(prev, _)) = out.last() {
                assert!(k >= prev, "popped {k} after {prev}");
            }
            out.push((k, v));
        }
        out
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut heap = RadixHeap::new();
        assert_eq!(heap.pop(), None);
        heap.push(3.0, 1);
        assert_eq!(heap.pop(), Some((3.0, 1)));
        assert_eq!(heap.pop(), None);
        heap.clear();
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn many_equal_keys_pop_in_order() {
        let mut heap = RadixHeap::new();
        for v in 0..100 {
            heap.push([2.0, 1.0, 1.5][v % 3], v);
        }
        let out = drain(&mut heap);
        assert_eq!(out.len(), 100);
        let mut nodes: Vec<NodeId> = out.iter().map(|&(_, v)| v).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..100).collect::<Vec<_>>());
        assert_eq!(out.iter().filter(|&&(k, _)| k == 1.0).count(), 33);
    }

    #[test]
    fn zero_and_infinite_keys() {
        let mut heap = RadixHeap::new();
        heap.push(f64::INFINITY, 0);
        heap.push(0.0, 1);
        heap.push(f64::MAX, 2);
        heap.push(0.0, 3);
        heap.push(f64::MIN_POSITIVE, 4);
        let keys: Vec<f64> = drain(&mut heap).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [0.0, 0.0, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY]);
    }

    #[test]
    fn interleaved_pushes_and_pops_match_a_sorted_model() {
        // A deterministic stream: each pop is followed by pushes at or above
        // it, as a Dijkstra search makes them, with keys one ulp apart,
        // equal to the last pop, and far above it.
        let mut heap = RadixHeap::new();
        let mut model: Vec<(u64, NodeId)> = vec![(0, 0)];
        heap.push(0.0, 0);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut popped = 0;
        while let Some((k, v)) = heap.pop() {
            let min = model
                .iter()
                .map(|&(b, _)| b)
                .min()
                .expect("model is non-empty");
            assert_eq!(k.to_bits(), min, "pop {popped}");
            let at = model
                .iter()
                .position(|&e| e == (k.to_bits(), v))
                .expect("popped entry was pushed");
            model.swap_remove(at);
            popped += 1;
            if popped > 500 {
                continue;
            }
            for _ in 0..(1 + state % 3) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let next = match state % 4 {
                    0 => k,
                    // One ulp up; +inf stays +inf (NaN.min(x) is x).
                    1 => f64::from_bits(k.to_bits() + 1).min(f64::INFINITY),
                    2 => k + (state >> 40) as f64 * 0.125,
                    _ => k * 2.0 + 1.0,
                };
                let node = (state >> 20) as usize % 50;
                heap.push(next, node);
                model.push((next.to_bits(), node));
            }
        }
        assert!(model.is_empty());
        assert!(popped > 100, "the stream ended after {popped} pops");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the last pop")]
    fn push_below_the_last_pop_panics_in_debug() {
        let mut heap = RadixHeap::new();
        heap.push(2.0, 0);
        heap.pop();
        heap.push(1.0, 1);
    }
}
