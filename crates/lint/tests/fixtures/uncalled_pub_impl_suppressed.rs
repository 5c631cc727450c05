// prochlo-lint: allow(uncalled-pub, "fixture: the return type of ledger(), which callers drive without naming it")
pub struct Ledger {
    pub(crate) entries: Vec<u64>,
}

pub fn ledger() -> Ledger {
    Ledger {
        entries: Vec::new(),
    }
}
