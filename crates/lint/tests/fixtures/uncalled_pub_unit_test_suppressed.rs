/// Kept public for a caller outside the workspace.
// prochlo-lint: allow(uncalled-pub, "fixture: an entry point for callers outside the workspace")
pub fn checksum(bytes: &[u8]) -> u32 {
    bytes.iter().map(|&b| u32::from(b)).sum()
}

pub fn encode(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out.extend_from_slice(&checksum(bytes).to_le_bytes());
    out
}
