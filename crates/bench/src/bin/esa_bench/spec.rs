//! `BENCHMARK.json`, read at compile time: the workload and per-layer metric
//! names, the units and the bounds this harness reports against live in that
//! file and nowhere in code.
//!
//! The workspace takes no JSON dependency, so this is a small strict
//! recursive-descent parser over the subset the file uses (objects, arrays,
//! strings without escapes beyond `\"` and `\\`, numbers).

use std::collections::BTreeMap;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug)]
enum Json {
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_space();
        self.bytes.get(self.at).copied()
    }

    fn text(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at).copied() {
                        Some(c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    }
                }
                Some(c) => out.push(c),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    self.skip_space();
                    let key = self.text()?;
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut list = Vec::new();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::List(list));
                }
                loop {
                    list.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::List(list));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Text(self.text()?)),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("unsupported value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
}

impl Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Object(map) => map.get(key).ok_or_else(|| format!("missing key `{key}`")),
            _ => Err(format!("`{key}` looked up on a non-object")),
        }
    }

    fn list(&self, key: &str) -> Result<&[Json], String> {
        match self.field(key)? {
            Json::List(items) => Ok(items),
            _ => Err(format!("`{key}` is not a list")),
        }
    }

    fn string(&self, key: &str) -> Result<String, String> {
        match self.field(key)? {
            Json::Text(s) => Ok(s.clone()),
            _ => Err(format!("`{key}` is not a string")),
        }
    }

    fn number(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Number(n) => Ok(*n),
            _ => Err(format!("`{key}` is not a number")),
        }
    }
}

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the reference median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The `BENCHMARK.json` compiled into this binary, parsed once.
    pub fn load() -> Result<&'static Self, String> {
        static SPEC: OnceLock<Result<Spec, String>> = OnceLock::new();
        SPEC.get_or_init(|| Self::parse(BENCHMARK_JSON))
            .as_ref()
            .map_err(String::clone)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let root = parser.value()?;
        if parser.peek().is_some() {
            return Err("trailing bytes after the top-level object".to_string());
        }
        let metrics = |key: &str, gated: bool| -> Result<Vec<MetricSpec>, String> {
            root.list(key)?
                .iter()
                .map(|row| {
                    let better = row.string("better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("better must be higher or lower, not {better}"));
                    }
                    Ok(MetricSpec {
                        name: row.string("name")?,
                        unit: row.string("unit")?,
                        bound: if gated {
                            Some(row.number("bound")?)
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: root
                .list("workloads")?
                .iter()
                .map(|w| w.string("name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The unit `BENCHMARK.json` declares for `name`, in either table.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shape_the_contract_fixes() {
        let spec = Spec::parse(
            r#"{"command": ["a", "b"], "paths": ["p"], "run_seconds": 7,
                "workloads": [{"name": "w1", "why": "x \"quoted\""}],
                "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "l.a", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["w1"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
        assert_eq!(spec.unit("l.a"), Some("count"));
        assert!(Spec::parse("{\"run_seconds\": 1} x").is_err());
    }
}
