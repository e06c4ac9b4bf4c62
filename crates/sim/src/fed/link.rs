//! Simulated bridge links between federation hosts.
//!
//! Each **ordered** pair of hosts has its own [`Link`] — the two
//! directions of a bridge fail and delay independently, exactly like the
//! two TCP half-connections of the threaded runtime's gateway pair. A
//! link is a latency/jitter base, a loss probability, a reorder
//! probability and an up/down switch (partitions flip both directions;
//! asymmetric partitions flip one).
//!
//! Delivery is a seeded draw: the federation's single RNG decides loss,
//! jitter and reordering in event order, so the same seed produces the
//! same network weather byte-for-byte.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Delay/loss parameters of one link direction. Integer units (µs and
/// permille) keep the struct exactly serializable and the draws integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Base one-way latency in microseconds.
    pub latency_us: u64,
    /// Uniform extra jitter in `[0, jitter_us]` microseconds.
    pub jitter_us: u64,
    /// Probability of dropping a message, in permille (0..=1000).
    pub loss_permille: u32,
    /// Probability of delaying a message by an extra `3 × jitter` (enough
    /// to overtake later sends), in permille.
    pub reorder_permille: u32,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // A LAN-ish bridge: 200 µs ± 100 µs, lossless.
        LinkConfig { latency_us: 200, jitter_us: 100, loss_permille: 0, reorder_permille: 0 }
    }
}

/// One direction of a bridge between two hosts.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Delay/loss parameters.
    pub config: LinkConfig,
    /// False while partitioned: every send is dropped.
    pub up: bool,
    /// Messages handed to the link.
    pub sent: u64,
    /// Messages dropped (partition or loss draw).
    pub dropped: u64,
}

impl Link {
    /// A healthy link with the given parameters.
    #[must_use]
    pub fn new(config: LinkConfig) -> Self {
        Link { config, up: true, sent: 0, dropped: 0 }
    }

    /// Draws one delivery: `Some(delay_ns)` to deliver after that one-way
    /// delay, `None` to drop. The draw consumes RNG state even when the
    /// link is down, so healing a partition never shifts the remaining
    /// random sequence between seeds of the same campaign.
    pub(crate) fn delivery_delay(&mut self, rng: &mut StdRng) -> Option<u64> {
        self.sent += 1;
        let loss_draw: u32 = rng.gen_range(0..1000);
        let jitter_us =
            if self.config.jitter_us == 0 { 0 } else { rng.gen_range(0..=self.config.jitter_us) };
        let reorder_draw: u32 = rng.gen_range(0..1000);
        if !self.up || loss_draw < self.config.loss_permille {
            self.dropped += 1;
            return None;
        }
        let mut delay_us = self.config.latency_us + jitter_us;
        if reorder_draw < self.config.reorder_permille {
            delay_us += 3 * self.config.jitter_us.max(1);
        }
        Some(delay_us.saturating_mul(1_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn delay_stays_in_the_configured_band() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = LinkConfig { latency_us: 200, jitter_us: 100, ..LinkConfig::default() };
        let mut link = Link::new(cfg);
        for _ in 0..200 {
            let d = link.delivery_delay(&mut rng).expect("lossless link delivers");
            assert!((200_000..=300_000).contains(&d), "delay {d} out of band");
        }
        assert_eq!(link.sent, 200);
        assert_eq!(link.dropped, 0);
    }

    #[test]
    fn partition_drops_but_keeps_consuming_the_rng() {
        let cfg = LinkConfig::default();
        // Two parallel runs, one with a mid-stream partition: draws after
        // the heal must be identical to the unpartitioned run's.
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut link_a = Link::new(cfg);
        let mut link_b = Link::new(cfg);
        let first_a: Vec<_> = (0..5).map(|_| link_a.delivery_delay(&mut rng_a)).collect();
        link_b.up = false;
        let first_b: Vec<_> = (0..5).map(|_| link_b.delivery_delay(&mut rng_b)).collect();
        assert!(first_a.iter().all(Option::is_some));
        assert!(first_b.iter().all(Option::is_none));
        assert_eq!(link_b.dropped, 5);
        link_b.up = true;
        for _ in 0..50 {
            assert_eq!(link_a.delivery_delay(&mut rng_a), link_b.delivery_delay(&mut rng_b));
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut link = Link::new(LinkConfig { loss_permille: 1000, ..LinkConfig::default() });
        assert!((0..20).all(|_| link.delivery_delay(&mut rng).is_none()));
    }
}
