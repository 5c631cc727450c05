pub fn called_helper() -> Wrapper {
    crate_only();
    Wrapper { field: PARENT_ONLY }
}

pub struct Wrapper {
    pub field: u32,
}

pub(crate) fn crate_only() {}

pub(super) const PARENT_ONLY: u32 = 2;

pub mod nested {}

pub static GREETING: &str = "hi";

#[cfg(test)]
mod tests {
    pub fn test_only_helper() {}
}
