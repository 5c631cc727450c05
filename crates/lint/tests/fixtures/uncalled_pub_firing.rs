pub fn orphan_helper() -> u32 {
    ORPHAN_LIMIT
}

pub const ORPHAN_LIMIT: u32 = 7;

pub const unsafe fn orphan_const_fn() {}

pub struct OrphanRecord {
    pub field: u32,
}

pub type OrphanAlias = OrphanRecord;
pub trait OrphanTrait {}
pub enum OrphanKind {
    Only,
}
