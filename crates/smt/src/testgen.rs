//! Seeded generators shared by the crate's unit tests.

use crate::aig::{Aig, Lit};

/// A 64-bit xorshift stream for the seeded random graphs.
pub(crate) fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    }
}

/// A random sequential graph with 1–8 latches, 0–4 inputs and three
/// AND gates per latch; next-state functions and `ok` are random
/// literals of the graph. Returns the graph and `ok`.
pub(crate) fn random_aig(rng: &mut impl FnMut() -> u64) -> (Aig, Lit) {
    let mut g = Aig::new();
    let n_in = (rng() % 5) as usize;
    let n_latch = 1 + (rng() % 8) as usize;
    let mut pool: Vec<Lit> = (0..n_in).map(|_| g.add_input()).collect();
    let latches: Vec<Lit> = (0..n_latch)
        .map(|_| g.add_latch(rng().is_multiple_of(2)))
        .collect();
    pool.extend(&latches);
    let pick = |pool: &[Lit], r: u64| {
        let l = pool[(r % pool.len() as u64) as usize];
        if r & (1 << 40) != 0 {
            l.negate()
        } else {
            l
        }
    };
    for _ in 0..3 * n_latch {
        let (a, b) = (pick(&pool, rng()), pick(&pool, rng()));
        let x = g.and(a, b);
        pool.push(x);
    }
    for &l in &latches {
        let nx = pick(&pool, rng());
        g.set_next(l, nx);
    }
    // Favour the deeper half of the pool for the property.
    let ok = pick(&pool[pool.len() / 2..], rng());
    (g, ok)
}
