/// Reached through the crate root's re-export by callers outside the workspace.
// prochlo-lint: allow(uncalled-pub, "fixture: re-exported for callers outside the workspace")
pub struct Reexported {
    pub field: u32,
}
