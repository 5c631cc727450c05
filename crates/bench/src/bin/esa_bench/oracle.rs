//! Correctness oracles: cheap checks, outside the timed region, that what
//! the program returned is what it was given. Every failure is collected —
//! a run reports all of them, then exits non-zero.

use prochlo_core::{AnalyzerDatabase, PipelineReport};

#[derive(Debug, Default)]
pub struct Oracle {
    failures: Vec<String>,
}

impl Oracle {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, left: T, right: T) {
        if left != right {
            self.fail(format!("{what}: {left:?} != {right:?}"));
        }
    }

    pub fn into_failures(self) -> Vec<String> {
        self.failures
    }

    /// Inside one epoch every received report is forwarded or dropped by
    /// design — none rejected, none undecryptable.
    pub fn conservation(&mut self, epoch: u64, report: &PipelineReport) {
        let stats = &report.shuffler_stats;
        self.equal(
            &format!("epoch {epoch}: forwarded + dropped + rejected == received"),
            stats.forwarded + stats.dropped_noise + stats.dropped_threshold + stats.rejected,
            stats.received,
        );
        self.equal(&format!("epoch {epoch}: rejected"), stats.rejected, 0);
        self.equal(
            &format!("epoch {epoch}: undecryptable"),
            report.database.undecryptable(),
            0,
        );
        self.equal(
            &format!("epoch {epoch}: forwarded == rows + pending share reports"),
            stats.forwarded,
            report.database.rows().len() + report.database.pending_secret_reports(),
        );
    }

    /// Every histogram row is a corpus word, counted no more often than the
    /// harness submitted it.
    pub fn histogram_within(
        &mut self,
        database: &AnalyzerDatabase,
        words: &[Vec<u8>],
        plaintext: &[u64],
    ) {
        for (value, count) in database.histogram().iter() {
            match words.iter().position(|word| word == value) {
                None => self.fail(format!(
                    "histogram row {:?} is not a corpus word",
                    String::from_utf8_lossy(value)
                )),
                Some(word) if count > plaintext[word] => self.fail(format!(
                    "w{} counted {count} times but submitted {}",
                    word + 1,
                    plaintext[word]
                )),
                Some(_) => {}
            }
        }
    }

    /// Every word of `expected` (indexes into `words`) has a row.
    pub fn words_present(
        &mut self,
        epoch: u64,
        database: &AnalyzerDatabase,
        words: &[Vec<u8>],
        expected: &[usize],
    ) {
        for &word in expected {
            if database.count(&words[word]) == 0 {
                self.fail(format!(
                    "epoch {epoch}: heavy word w{} is missing",
                    word + 1
                ));
            }
        }
    }

    /// Secret-share recovery (§4.2), from what the analyzer reports: a
    /// crowd the shuffler forwarded is one share group; a group is
    /// recovered iff it kept at least `threshold` reports, so recovered
    /// words count at least `threshold`, pending groups hold fewer than
    /// `threshold` reports each, and the two kinds add up to the crowds
    /// forwarded.
    pub fn secret_shares(
        &mut self,
        epoch: u64,
        report: &PipelineReport,
        words: &[Vec<u8>],
        threshold: usize,
    ) {
        let database = &report.database;
        self.equal(
            &format!("epoch {epoch}: recovered + pending groups == crowds forwarded"),
            database.recovered_secrets() + database.pending_secret_groups(),
            report.shuffler_stats.crowds_forwarded,
        );
        self.equal(
            &format!("epoch {epoch}: distinct rows == recovered secrets"),
            database.distinct_values(),
            database.recovered_secrets(),
        );
        for word in words {
            let count = database.count(word);
            if count > 0 && count < threshold as u64 {
                self.fail(format!(
                    "epoch {epoch}: {} recovered from {count} < {threshold} shares",
                    String::from_utf8_lossy(word)
                ));
            }
        }
        if database.pending_secret_reports() > database.pending_secret_groups() * (threshold - 1) {
            self.fail(format!(
                "epoch {epoch}: a group with {threshold} or more shares stayed pending"
            ));
        }
    }
}
