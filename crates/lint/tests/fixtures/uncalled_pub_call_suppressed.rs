pub struct Config {
    pub history: usize,
}

impl Config {
    /// Kept for callers outside the workspace.
    // prochlo-lint: allow(uncalled-pub, "fixture: an accessor for callers outside the workspace")
    pub fn history(&self) -> usize {
        self.history
    }
}
