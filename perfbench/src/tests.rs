//! Self-tests of the benchmark's output and of `BENCHMARK.json`.

use super::*;
use crate::metrics::valid_metric_name;

/// A minimal JSON value, enough to check what the benchmark prints.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, parser.bytes.len(), "trailing characters");
        value
    }

    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_space();
        *self.bytes.get(self.at).expect("unexpected end of input")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return value;
                    }
                }
                panic!("bad literal at byte {}", self.at)
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                assert!(
                    !text.starts_with('+') && !text.starts_with('.') && !text.ends_with('.'),
                    "`{text}` is not a JSON number"
                );
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => return out,
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(byte as char),
            }
        }
    }
}

fn sample_metrics(catalogue: &[(&str, &str)]) -> MetricSet {
    let mut metrics = MetricSet::new();
    for (i, &(name, unit)) in catalogue.iter().enumerate() {
        // Awkward values on purpose: long fractions, tiny and huge numbers.
        metrics.push(
            name,
            (i as f64 + 1.0) / 3.0 * 10f64.powi(i as i32 % 9 - 4),
            unit,
        );
    }
    metrics
}

#[test]
fn result_lines_parse_and_carry_every_metric_with_its_unit() {
    for catalogue in [catalog::END_TO_END, catalog::PER_LAYER] {
        let metrics = sample_metrics(catalogue);
        let line = result_line(true, 12, 0, &metrics);
        let json = Parser::parse(&line);
        let keys: Vec<&str> = match &json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted"), Some(&Json::Num(12.0)));
        assert_eq!(json.get("failed"), Some(&Json::Num(0.0)));
        let reported = json.get("metrics").expect("metrics");
        for &(name, unit) in catalogue {
            let metric = reported
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(metric.get("unit").map(Json::str), Some(unit));
            // Every digit survives the round trip.
            assert_eq!(
                metric.get("value"),
                Some(&Json::Num(metrics.get(name).unwrap())),
                "{name}"
            );
        }
    }
}

#[test]
fn catalogue_order_fills_unexercised_layers_with_zero() {
    let mut partial = MetricSet::new();
    partial.push("solver.iterations", 517.0, "count");
    partial.push("host.nproc", 2.0, "count");
    let ordered = in_catalogue_order(&partial, catalog::PER_LAYER);
    let names: Vec<&str> = ordered.names().collect();
    let expected: Vec<&str> = catalog::PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    assert_eq!(ordered.get("solver.iterations"), Some(517.0));
    assert_eq!(ordered.get("serve.frame_ms"), Some(0.0));
}

#[test]
#[should_panic(expected = "not in the catalogue")]
fn metrics_outside_the_catalogue_are_a_bug() {
    let mut stray = MetricSet::new();
    stray.push("stray.metric", 1.0, "ms");
    in_catalogue_order(&stray, catalog::END_TO_END);
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let json = Parser::parse(include_str!("../../BENCHMARK.json"));
    let listed = |key: &str| -> Vec<(String, String)> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let name = m.get("name").expect("name").str().to_string();
                    assert!(valid_metric_name(&name), "{name}");
                    let better = m.get("better").expect("better").str();
                    assert!(better == "higher" || better == "lower", "{name}");
                    (name, m.get("unit").expect("unit").str().to_string())
                })
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    };
    let own = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(catalog::END_TO_END));
    assert_eq!(listed("per_layer"), own(catalog::PER_LAYER));
    let workloads: Vec<&str> = match json.get("workloads") {
        Some(Json::Arr(items)) => items.iter().map(|w| w.get("name").unwrap().str()).collect(),
        other => panic!("workloads: {other:?}"),
    };
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn arguments_are_checked_where_they_enter() {
    let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from));
    let args = parse("--workload serve-stream --seed 7 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(args.workload, "serve-stream");
    assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload steady-cg --seed -1 --seconds 1 --trace 0",
        "--workload steady-cg --seed 1 --seconds 0 --trace 0",
        "--workload steady-cg --seed 1 --seconds 1 --trace 2",
        "--workload steady-cg --seed 1 --seconds 1",
        "--workload steady-cg --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn seeds_determine_inputs() {
    assert_eq!(derive_seed(1, 10), derive_seed(1, 10));
    assert_ne!(derive_seed(1, 10), derive_seed(1, 11));
    assert_ne!(derive_seed(1, 10), derive_seed(2, 10));
    assert_eq!(
        transient_batch::jobs(3, transient_batch::DIMS)[2].effective_spec(),
        transient_batch::jobs(3, transient_batch::DIMS)[2].effective_spec()
    );
    assert_ne!(steady::spec(1).permeability, steady::spec(2).permeability);
    assert_eq!(checksum(&[1.0, 2.0]), checksum(&[1.0, 2.0]));
    assert_ne!(checksum(&[1.0, 2.0]), checksum(&[2.0, 1.0]));
}
