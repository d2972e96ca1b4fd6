//! Order statistics, the metric-name rules, and the result line every run
//! prints last.

use spade_sim::JsonValue;

/// A tail percentile is reported only where at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// `true` for a metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The nearest-rank `p`-th percentile of ascending `sorted` samples: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// epsilon keeps an exact product such as `87.5% × 80 = 70` from rounding
/// up to the next rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentile to report for `n` samples: `want`, or the highest
/// percentile below it that still has [`MIN_BEYOND`] samples beyond it.
/// `None` when there are too few samples for any tail.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    Some(want.min(100.0 * (n - MIN_BEYOND) as f64 / n as f64))
}

/// A latency distribution summarized the way every timing is reported:
/// sample count, median and one tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// The percentile [`tail_percentile`] chose (the median when too few).
    pub tail_pct: f64,
    /// That percentile's value, milliseconds.
    pub tail_ms: f64,
}

impl Latency {
    /// Summarizes samples in milliseconds, aiming the tail at `want`.
    /// `None` for no samples.
    pub fn of(samples_ms: &[f64], want: f64) -> Option<Latency> {
        if samples_ms.is_empty() {
            return None;
        }
        let mut sorted = samples_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len(), want).unwrap_or(50.0);
        Some(Latency {
            n: sorted.len(),
            p50_ms: nearest_rank(&sorted, 50.0),
            tail_pct,
            tail_ms: nearest_rank(&sorted, tail_pct),
        })
    }
}

/// Named lines for a latency sample: `<name>_p50_ms` and
/// `<name>_p<want>_ms`, each with the percentile actually used and the
/// sample count.
pub fn latency_notes(name: &str, samples_ms: &[f64], want: f64) -> Vec<String> {
    let want_label = trim_pct(want);
    match Latency::of(samples_ms, want) {
        None => vec![format!("{name}: no samples")],
        Some(l) => vec![
            format!("{name}_p50_ms {:.4} ms (n={})", l.p50_ms, l.n),
            format!(
                "{name}_p{want_label}_ms {:.4} ms (p{} of n={}: the highest percentile up to p{want_label} with {MIN_BEYOND} samples beyond it)",
                l.tail_ms,
                trim_pct(l.tail_pct),
                l.n
            ),
        ],
    }
}

fn trim_pct(p: f64) -> String {
    let s = format!("{p:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    let (m, n) = (ld + 1, 4i64);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (data[j as usize - 1] * (n - delta) as f64 + data[j as usize] * delta as f64) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of a slice (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The machine-readable last line of every run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (jobs, requests, batch jobs).
    pub attempted: u64,
    /// Operations that failed: an error reply, a refusal, or a wrong
    /// output.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl ResultLine {
    /// Renders the line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::object([
                        ("value", JsonValue::Float(m.value)),
                        ("unit", m.unit.as_str().into()),
                    ]),
                )
            })
            .collect();
        JsonValue::object([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ])
        .render()
    }

    /// Parses a line [`ResultLine::render`] produced.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a missing or extra key, or a metric
    /// without a numeric value and a unit.
    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let doc = JsonValue::parse(line.trim())?;
        let keys: Vec<&str> = doc
            .entries()
            .ok_or("result line is not an object")?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let field = |k: &str| doc.get(k).ok_or(format!("missing {k:?}"));
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?
            .entries()
            .ok_or("\"metrics\" is not an object")?
        {
            metrics.push(Metric {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("metric {name:?} has no unit"))?
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("metric {name:?} has no numeric value"))?,
            });
        }
        Ok(ResultLine {
            correct: field("correct")?.as_bool().ok_or("bad \"correct\"")?,
            attempted: field("attempted")?.as_u64().ok_or("bad \"attempted\"")?,
            failed: field("failed")?.as_u64().ok_or("bad \"failed\"")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        for n in (MIN_BEYOND + 1)..3_000 {
            for want in [90.0, 99.0] {
                let p = tail_percentile(n, want).unwrap();
                assert!(p <= want);
                let beyond = n - rank(n, p);
                assert!(beyond >= MIN_BEYOND, "n={n} p={p} leaves {beyond}");
                // The highest such percentile: one rank further would
                // leave fewer than ten beyond, unless `want` capped it.
                if p < want {
                    assert_eq!(beyond, MIN_BEYOND, "n={n} p={p}");
                }
            }
        }
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(80, 90.0), Some(87.5));
        assert_eq!(tail_percentile(MIN_BEYOND, 90.0), None);
    }

    #[test]
    fn nearest_rank_picks_sample_values() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 90.0), 90.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        let lat = Latency::of(&xs[..20], 90.0).unwrap();
        assert_eq!((lat.n, lat.tail_pct, lat.tail_ms), (20, 50.0, 10.0));
        let notes = latency_notes("hit", &xs[..80], 90.0);
        assert!(
            notes[0].starts_with("hit_p50_ms 40.0000 ms (n=80)"),
            "{notes:?}"
        );
        assert!(
            notes[1].starts_with("hit_p90_ms 70.0000 ms (p87.5 of n=80"),
            "{notes:?}"
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["p50_ms", "sim.l1_hit_rate", "serve-hit", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = ResultLine {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("p50_ms", "ms", 1.203_456_789_012_3),
                Metric::new("setup_s", "s", 0.812_7),
                Metric::new("peak_rss_mb", "MB", 96.0),
            ],
        };
        let text = line.render();
        assert!(text.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
        assert_eq!(ResultLine::parse(&text), Ok(line));
        assert!(ResultLine::parse("{\"correct\":true}").is_err());
        assert!(ResultLine::parse(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{},\"extra\":1}"
        )
        .is_err());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
