//! Crowd routing for a scaled-out collector: ESA thresholds per crowd, so
//! every report of a crowd must reach the same collector shard.

use prochlo_crypto::sha256;

use super::ShardedDeployment;

/// The crowd-routing prefix of a label: the first eight bytes of
/// `SHA-256(label)`, read big-endian — the same hash a hashed crowd ID
/// already exposes to the shuffler, so routing on it reveals nothing a
/// report does not. This is what clients put in a `SUBMIT_ROUTED` frame
/// and what [`ShardedDeployment::shard_index_from_prefix`] reduces to a
/// shard.
pub fn crowd_prefix(label: &[u8]) -> u64 {
    let digest = sha256(label);
    u64::from_be_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

impl ShardedDeployment {
    /// Which of `num_shards` shards a routing prefix names: the prefix
    /// modulo the shard count, so shard counts far beyond 256 still receive
    /// traffic. The router calls it with the prefix a `SUBMIT_ROUTED` frame
    /// carries; it never sees labels.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero; the router refuses to start without
    /// a shard.
    pub fn shard_index_from_prefix(prefix: u64, num_shards: usize) -> usize {
        assert!(num_shards > 0, "cannot route to zero shards");
        (prefix % num_shards as u64) as usize
    }
}
