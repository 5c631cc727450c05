pub fn parse_line(line: &str) -> Option<u32> {
    line.strip_prefix("metric ")?.parse().ok()
}
