//! Streaming an epoch: an [`EpochSession`] buffers reports and
//! [`canonicalize`]s the batch before it ingests it.

use super::{EpochSession, PipelineReport};
use crate::error::PipelineError;
use crate::record::ClientReport;

/// Puts a batch into its canonical order — sorted by outer-ciphertext bytes
/// — so what an epoch computes is a pure function of the batch *contents*
/// and its [`EpochSpec`](super::EpochSpec), never of arrival order. Every
/// path that cuts a batch for the shufflers ([`EpochSession::finish`], the
/// fabric's shard pipeline) calls this one function; a seeded replay across
/// them is byte-identical only because they agree on it.
///
/// The comparison reads `(ephemeral, nonce, sealed)` in place: the first
/// two have fixed lengths, so this is the order of the concatenated wire
/// bytes without building them, and the sort is stable, so equal
/// ciphertexts keep their arrival order. Returns how many reports copy an
/// earlier one's outer ciphertext exactly — replays, since two honest
/// reports never share an ephemeral key — which the sort makes adjacent.
/// The copies stay in the batch and are counted.
pub fn canonicalize(reports: &mut [ClientReport]) -> usize {
    fn key(report: &ClientReport) -> (&[u8; 32], &[u8; 12], &[u8]) {
        let outer = &report.outer;
        (&outer.ephemeral, &outer.nonce, &outer.sealed)
    }
    reports.sort_by(|a, b| key(a).cmp(&key(b)));
    reports
        .windows(2)
        .filter(|pair| key(&pair[0]) == key(&pair[1]))
        .count()
}

impl EpochSession<'_> {
    /// Buffers a batch of reports.
    pub fn extend<I: IntoIterator<Item = ClientReport>>(&mut self, reports: I) {
        self.reports.extend(reports);
    }

    /// Canonicalizes the buffered batch (sorted by outer-ciphertext bytes,
    /// erasing arrival order one stage before the shuffler even sees it)
    /// and ingests it under the session's spec.
    pub fn finish(self) -> Result<PipelineReport, PipelineError> {
        let Self {
            deployment,
            spec,
            mut reports,
        } = self;
        let duplicates = canonicalize(&mut reports);
        let mut report = deployment.ingest(&spec, &reports)?;
        report.shuffler_stats.duplicate_reports = duplicates;
        Ok(report)
    }
}
