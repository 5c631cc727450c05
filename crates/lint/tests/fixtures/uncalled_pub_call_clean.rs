pub struct Registry {
    pub entries: Vec<u32>,
}

impl Registry {
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    pub fn empty() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }
}

impl std::fmt::Display for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", total(self))
    }
}

pub fn total(registry: &Registry) -> u32 {
    registry.entries.iter().sum()
}
