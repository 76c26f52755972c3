//! Seeded input generation.
//!
//! Every input a workload sends — payload sizes, bodies, the call order and
//! the relocation schedule — is drawn here from one SplitMix64 stream per
//! purpose, forked from the workload seed. The program under test receives
//! only the generated inputs; the same seed gives the same inputs.

use ntcs_sim::SimRng;

/// How many distinct inputs a workload cycles through.
pub const POOL: usize = 4096;

/// Printable-ASCII `Ask` bodies with lengths uniform in `0..=max_len`.
#[must_use]
pub fn bodies(rng: &mut SimRng, count: usize, max_len: usize) -> Vec<String> {
    (0..count)
        .map(|_| {
            let len = rng.range(0, max_len as u64 + 1) as usize;
            (0..len)
                .map(|_| char::from(rng.range(0x20, 0x7f) as u8))
                .collect()
        })
        .collect()
}

/// Bulk payload size classes of `stream_chain`, in 32-bit words.
pub const BULK_WORDS: [usize; 3] = [16, 256, 16 * 1024];

/// Casts of each size class in every window of 32: 16 of 64 B, 13 of
/// 1 KiB and 3 of 64 KiB, so the 64 KiB casts (about 10% by count) carry
/// most of the bytes and every window carries the same load.
pub const WINDOW_MIX: [usize; 3] = [16, 13, 3];

/// A cast schedule of size classes: whole windows of [`WINDOW_MIX`], each
/// in its own seeded order.
#[must_use]
pub fn bulk_schedule(rng: &mut SimRng, windows: usize) -> Vec<u8> {
    let mut window: Vec<u8> = WINDOW_MIX
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class as u8, n))
        .collect();
    let mut out = Vec::with_capacity(windows * window.len());
    for _ in 0..windows {
        rng.shuffle(&mut window);
        out.extend_from_slice(&window);
    }
    out
}

/// Seeded contents of one bulk payload of `words` words.
#[must_use]
pub fn bulk_words(rng: &mut SimRng, words: usize) -> Vec<u32> {
    (0..words).map(|_| rng.next_u64() as u32).collect()
}

/// A call order visiting `services` targets round-robin, each round in a
/// freshly shuffled order.
#[must_use]
pub fn round_robin(rng: &mut SimRng, services: usize, count: usize) -> Vec<u8> {
    let mut order = Vec::with_capacity(count + services);
    let mut round: Vec<u8> = (0..services as u8).collect();
    while order.len() < count {
        rng.shuffle(&mut round);
        order.extend_from_slice(&round);
    }
    order.truncate(count);
    order
}

/// For each service, how many calls it serves before each relocation,
/// uniform in `lo..=hi`.
#[must_use]
pub fn relocation_intervals(rng: &mut SimRng, services: usize, lo: u32, hi: u32) -> Vec<Vec<u32>> {
    (0..services)
        .map(|_| {
            (0..POOL)
                .map(|_| rng.range(u64::from(lo), u64::from(hi) + 1) as u32)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = bodies(&mut SimRng::new(7).fork("bodies"), 64, 1024);
        let b = bodies(&mut SimRng::new(7).fork("bodies"), 64, 1024);
        let c = bodies(&mut SimRng::new(8).fork("bodies"), 64, 1024);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|s| s.len() <= 1024 && s.bytes().all(|b| (0x20..0x7f).contains(&b))));
    }

    #[test]
    fn every_window_carries_the_same_mix() {
        let s = bulk_schedule(&mut SimRng::new(1), 100);
        assert_eq!(s.len(), 3200);
        for window in s.chunks(32) {
            for (class, &n) in WINDOW_MIX.iter().enumerate() {
                assert_eq!(
                    window.iter().filter(|&&c| usize::from(c) == class).count(),
                    n
                );
            }
        }
        assert_ne!(s[..32], s[32..64], "windows are shuffled independently");
    }

    #[test]
    fn round_robin_visits_every_service_each_round() {
        let order = round_robin(&mut SimRng::new(3), 4, 400);
        for round in order.chunks(4) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, [0, 1, 2, 3]);
        }
    }
}
