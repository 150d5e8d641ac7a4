//! Word-parallel bitset kernels.
//!
//! Relation and set operators on rows wider than one word bottom out in
//! one of three word-wise combines over `u64` rows: `|`, `&`, `& !`
//! (one-word rows combine their single words directly). These
//! kernels operate on borrowed row slices and are manually unrolled
//! four words at a time so the compiler reliably keeps four independent
//! accumulators in flight (the autovectorizer then maps them onto
//! whatever SIMD width the target has). Callers never allocate here:
//! the destination slice is always caller-provided storage, which is
//! what lets the [`RelationArena`](crate::RelationArena) reuse rows
//! across candidates instead of round-tripping through the allocator.
//!
//! All kernels require `dst.len() == src.len()` and panic otherwise —
//! rows from mismatched universes must never be combined.

/// `dst[i] |= src[i]` for every word, 4×-unrolled.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        dw[0] |= sw[0];
        dw[1] |= sw[1];
        dw[2] |= sw[2];
        dw[3] |= sw[3];
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw |= *sw;
    }
}

/// `dst[i] &= src[i]` for every word, 4×-unrolled.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        dw[0] &= sw[0];
        dw[1] &= sw[1];
        dw[2] &= sw[2];
        dw[3] &= sw[3];
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw &= *sw;
    }
}

/// `dst[i] &= !src[i]` for every word (set difference), 4×-unrolled.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        dw[0] &= !sw[0];
        dw[1] &= !sw[1];
        dw[2] &= !sw[2];
        dw[3] &= !sw[3];
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw &= !*sw;
    }
}

/// Whether any word position has a common set bit (`a[i] & b[i] != 0`
/// for some `i`), 4×-unrolled with accumulated ORs so the loop body is
/// branch-free.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut acc = 0u64;
    for (aw, bw) in ac.by_ref().zip(bc.by_ref()) {
        acc |= (aw[0] & bw[0]) | (aw[1] & bw[1]) | (aw[2] & bw[2]) | (aw[3] & bw[3]);
    }
    for (aw, bw) in ac.remainder().iter().zip(bc.remainder()) {
        acc |= aw & bw;
    }
    acc != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[u64], b: &[u64], f: fn(u64, u64) -> u64) -> Vec<u64> {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    }

    #[test]
    fn kernels_match_wordwise_reference_at_every_remainder_length() {
        // Lengths 0..=9 cover empty slices, pure-remainder slices, one
        // full chunk, and chunk+remainder combinations.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in 0..=9 {
            let a: Vec<u64> = (0..len).map(|_| rng()).collect();
            let b: Vec<u64> = (0..len).map(|_| rng()).collect();

            let mut d = a.clone();
            or_assign(&mut d, &b);
            assert_eq!(d, reference(&a, &b, |x, y| x | y), "or len={len}");

            let mut d = a.clone();
            and_assign(&mut d, &b);
            assert_eq!(d, reference(&a, &b, |x, y| x & y), "and len={len}");

            let mut d = a.clone();
            andnot_assign(&mut d, &b);
            assert_eq!(d, reference(&a, &b, |x, y| x & !y), "andnot len={len}");

            assert_eq!(
                intersects(&a, &b),
                a.iter().zip(&b).any(|(x, y)| x & y != 0),
                "intersects len={len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn length_mismatch_panics() {
        or_assign(&mut [0u64; 3], &[0u64; 4]);
    }
}
