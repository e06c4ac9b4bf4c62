//! The hasher of every id-keyed table on the job path.
//!
//! The keys are [`TaskId`](crate::task::TaskId), [`JobId`](crate::task::JobId)
//! and [`ContributionKey`](crate::ledger::ContributionKey): one to three
//! machine words, hashed several times per job. std's SipHash-1-3 spends
//! more on such a key than the table operation it serves; an unkeyed
//! multiplicative hash would be cheap but lets whoever picks the `seq` of a
//! bridged job pick its bucket too (sequence numbers `2^32` apart share the
//! low half of a plain product). [`FoldHasher`] is a folded multiply per
//! word — the 128-bit product's halves XORed together, so every input bit
//! reaches both the bucket bits and the tag bits — started from a key drawn
//! per map ([`FoldState::default`]) from std's own `RandomState`, so which
//! keys collide differs from map to map and run to run.
//!
//! There is one hasher and it has no knobs: [`IdMap`] and [`IdSet`] are the
//! only way the crates spell an id-keyed table. Nothing may depend on the
//! iteration order of either (it is as arbitrary as std's); code that walks
//! one sorts what it collected.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by one of the crate's ids.
pub type IdMap<K, V> = HashMap<K, V, FoldState>;

/// A `HashSet` of one of the crate's ids.
pub type IdSet<K> = HashSet<K, FoldState>;

/// `2^64 / φ`, odd: consecutive multiples spread evenly over the top bits.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Builds [`FoldHasher`]s that all start from this map's key.
#[derive(Debug, Clone)]
pub struct FoldState {
    key: u64,
}

impl Default for FoldState {
    /// Draws a fresh key: `RandomState::new()` is seeded from the operating
    /// system once per thread and differs on every call.
    fn default() -> Self {
        FoldState { key: RandomState::new().hash_one(0u8) }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.key }
    }
}

/// One folded multiply per word written; see the module documentation.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLIER);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// What looking every key of `map` up costs beyond one slot each: the sum
/// over the table's low-bit buckets of the square of the keys that share
/// one, as the map's own hasher places them. Uniform placement at the
/// table's load reads about `1.5 × len`; keys aimed at one bucket read
/// `len²`.
#[cfg(test)]
pub(crate) fn collision_cost<K: std::hash::Hash, V>(map: &IdMap<K, V>) -> usize {
    let buckets = (map.capacity() * 8 / 7).next_power_of_two();
    let mut load = vec![0usize; buckets];
    for key in map.keys() {
        load[map.hasher().hash_one(key) as usize & (buckets - 1)] += 1;
    }
    load.iter().map(|n| n * n).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{RESERVED_SEQ, SENTINEL_SEQ_FLOOR};
    use crate::ledger::ContributionKey;
    use crate::task::{JobId, TaskId};
    use std::hash::Hash;

    /// Keys per family: as many as buckets, so uniform placement leaves a
    /// fullest bucket of about 6 and 32 keys per tag.
    const KEYS: usize = 4096;

    /// Fixed keys beside a drawn one: the spread must not be luck of the
    /// draw, and an all-zero key is the unkeyed hash.
    fn states() -> [FoldState; 4] {
        [
            FoldState::default(),
            FoldState { key: 0 },
            FoldState { key: u64::MAX },
            FoldState { key: 0x0123_4567_89AB_CDEF },
        ]
    }

    /// Asserts `keys` (distinct, `KEYS` of them) fill `KEYS` low-bit
    /// buckets and the 128 top-7-bit tags within a small constant of
    /// uniform, under every state of [`states`].
    fn assert_spread<K: Hash>(family: &str, keys: &[K]) {
        assert_eq!(keys.len(), KEYS, "{family}");
        for state in states() {
            let mut buckets = vec![0u32; KEYS];
            let mut tags = [0u32; 128];
            for key in keys {
                let hash = state.hash_one(key);
                buckets[hash as usize & (KEYS - 1)] += 1;
                tags[(hash >> 57) as usize] += 1;
            }
            let fullest = buckets.iter().max().unwrap();
            assert!(*fullest <= 12, "{family}, key {:#x}: a bucket of {fullest}", state.key);
            let (rarest, commonest) = (tags.iter().min().unwrap(), tags.iter().max().unwrap());
            assert!(
                *rarest >= 8 && *commonest <= 96,
                "{family}, key {:#x}: tags held {rarest}..{commonest} keys, 32 is even",
                state.key
            );
        }
    }

    fn job(task: u32, seq: u64) -> JobId {
        JobId::new(TaskId(task), seq)
    }

    #[test]
    fn sequential_and_strided_seqs_spread() {
        for shift in 0..=40 {
            let keys: Vec<JobId> = (0..KEYS as u64).map(|i| job(0, i << shift)).collect();
            assert_spread(&format!("seq stepping by 2^{shift}"), &keys);
        }
    }

    #[test]
    fn task_major_and_seq_major_grids_spread() {
        let tasks: Vec<JobId> = (0..KEYS as u32).map(|t| job(t, 0)).collect();
        assert_spread("one job of each task", &tasks);
        let task_ids: Vec<TaskId> = (0..KEYS as u32).map(TaskId).collect();
        assert_spread("bare task ids", &task_ids);
        let grid: Vec<JobId> = (0..64).flat_map(|t| (0..64).map(move |s| job(t, s))).collect();
        assert_spread("64 tasks x 64 seqs", &grid);
        let wide: Vec<JobId> = (0..1024).flat_map(|t| (0..4).map(move |s| job(t, s))).collect();
        assert_spread("1024 tasks x 4 seqs", &wide);
    }

    #[test]
    fn contribution_keys_spread() {
        let keys: Vec<ContributionKey> = (0..KEYS as u64 / 8)
            .flat_map(|seq| (0..8).map(move |subtask| ContributionKey::new(job(3, seq), subtask)))
            .collect();
        assert_spread("512 jobs x 8 subtasks", &keys);
    }

    #[test]
    fn sentinel_seqs_spread() {
        let reserved: Vec<JobId> = (0..KEYS as u32).map(|t| job(t, RESERVED_SEQ)).collect();
        assert_spread("one reservation per task", &reserved);
        let drains: Vec<JobId> = (0..KEYS as u64).map(|i| job(0, RESERVED_SEQ - 1 - i)).collect();
        assert_spread("drain ids counting down", &drains);
        let floor: Vec<JobId> = (0..KEYS as u64).map(|i| job(0, SENTINEL_SEQ_FLOOR - i)).collect();
        assert_spread("the last real seqs", &floor);
    }

    #[test]
    fn each_map_draws_its_own_key() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.key, b.key);
        assert_ne!(a.hash_one(job(0, 1)), b.hash_one(job(0, 1)));
        // A clone is the same table layout, as std's is.
        assert_eq!(a.hash_one(job(0, 1)), a.clone().hash_one(job(0, 1)));
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        let state = FoldState { key: 7 };
        assert_ne!(state.hash_one("ab"), state.hash_one("ba"));
        assert_ne!(state.hash_one([0u8; 8].as_slice()), state.hash_one([0u8; 16].as_slice()));
    }

    #[test]
    fn collision_cost_of_spread_keys_is_near_one_slot_each() {
        let mut spread: IdMap<JobId, ()> = IdMap::default();
        spread.extend((0..KEYS as u64).map(|i| (job(0, i), ())));
        assert!(collision_cost(&spread) <= 3 * KEYS, "{}", collision_cost(&spread));
    }
}
