//! The benchmark's own tests, at the tiny input size: every workload
//! prints every metric `BENCHMARK.json` names, with its unit; the
//! quality metrics repeat exactly at one seed; and a corrupted
//! selection trips the output gate.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (only what these tests read).
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(fields) => fields.get(key).unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(x) => *x,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Value {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                        }
                        other => other as char,
                    });
                }
                _ => {
                    // Copy one UTF-8 sequence.
                    let start = self.i - 1;
                    let len = match c {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        0xC0.. => 2,
                        _ => 1,
                    };
                    self.i = start + len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }

    fn value(&mut self) -> Value {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Value::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Value::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Value::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Value::Arr(items);
                    }
                }
            }
            b'"' => Value::Str(self.string()),
            b't' => {
                self.i += 4;
                Value::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Value::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Value::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Value::Num(text.parse().unwrap())
            }
        }
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_owned())
        .collect()
}

struct Outcome {
    code: i32,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Outcome {
    let trace_out = format!(
        "{}/trace-test-{workload}-{seed}-{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        extra.len()
    );
    let out = Command::new(env!("CARGO_BIN_EXE_lcrb-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.1",
            "--size",
            "tiny",
            "--trace-out",
            &trace_out,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Outcome {
        code: out.status.code().unwrap_or(-1),
        result: Parser::parse(last),
    }
}

/// Asserts that `result` prints exactly the metrics listed under
/// `section`, each as a finite number with the listed unit.
fn assert_metrics(result: &Value, section: &str, workload: &str) {
    let spec = benchmark_json();
    let metrics = result.get("metrics");
    let Value::Obj(printed) = metrics else {
        panic!("{workload}: no metrics object");
    };
    let expected = spec.get(section).items();
    assert_eq!(
        printed.len(),
        expected.len(),
        "{workload} {section}: metric count"
    );
    for m in expected {
        let name = m.get("name").str();
        let printed = metrics.get(name);
        assert!(
            printed.get("value").num().is_finite(),
            "{workload}: {name} has no finite value"
        );
        assert_eq!(
            printed.get("unit").str(),
            m.get("unit").str(),
            "{workload}: unit of {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in workloads() {
        let plain = run(&workload, 3, false, &[]);
        assert_eq!(plain.code, 0, "{workload} failed");
        assert_eq!(plain.result.get("correct"), &Value::Bool(true));
        assert_eq!(plain.result.get("failed").num(), 0.0);
        assert!(plain.result.get("attempted").num() >= 1.0);
        assert_metrics(&plain.result, "end_to_end", &workload);

        let traced = run(&workload, 3, true, &[]);
        assert_eq!(traced.code, 0, "{workload} traced run failed");
        assert_metrics(&traced.result, "per_layer", &workload);
    }
}

#[test]
fn quality_metrics_repeat_exactly_at_one_seed() {
    for workload in workloads() {
        let a = run(&workload, 5, false, &[]).result;
        let b = run(&workload, 5, false, &[]).result;
        for name in ["infected_final", "protectors_total"] {
            let value = |r: &Value| r.get("metrics").get(name).get("value").num();
            assert_eq!(
                value(&a),
                value(&b),
                "{workload}: {name} differs across runs"
            );
        }
    }
}

#[test]
fn a_corrupted_selection_trips_the_output_gate() {
    for workload in workloads() {
        let out = run(&workload, 7, false, &["--corrupt-selection"]);
        assert_ne!(out.code, 0, "{workload}: corrupted run exited 0");
        assert_eq!(out.result.get("correct"), &Value::Bool(false));
        assert!(
            out.result.get("failed").num() >= 1.0,
            "{workload}: no failed check"
        );
    }
}
