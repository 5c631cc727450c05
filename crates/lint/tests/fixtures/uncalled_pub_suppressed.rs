/// Kept public for a caller outside the workspace.
// prochlo-lint: allow(uncalled-pub, "fixture: an entry point for callers outside the workspace")
pub fn orphan_helper() {}
