pub struct Ledger {
    pub(crate) entries: Vec<u64>,
}

pub fn ledger() -> Ledger {
    Ledger {
        entries: Vec::new(),
    }
}
