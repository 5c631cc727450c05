pub struct Config {
    pub history: usize,
}

impl Config {
    pub fn history(&self) -> usize {
        self.history
    }

    pub fn perms() -> Self {
        Config { history: 100 }
    }
}

pub fn summarize(config: &Config) -> usize {
    config.history()
}
