//! What every report shares: plain-text table rendering for the figure
//! binaries, the latency order statistic, and the [`Json`] value every
//! `results/BENCH_*.json` artifact is rendered from.

/// Print a padded table: a header row, a rule, then the data rows.
/// Columns are sized to their widest cell.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: Vec<&str>| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", line.trim_end());
    };
    render(headers.to_vec());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        render(row.iter().map(String::as_str).collect());
    }
}

/// Format a float compactly for table cells.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// The `q`-quantile of an ascending sample by nearest rank; 0 for an
/// empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A JSON value: what the `results/BENCH_*.json` artifacts are built
/// from, so an emitter is a list of fields and the layout exists once.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Fields in emission order.
    Object(Vec<(&'static str, Json)>),
    /// Elements in order.
    Array(Vec<Json>),
    /// An exact integer (counts, seeds).
    Int(u64),
    /// A float with a fixed number of decimals, or in its shortest
    /// round-tripping form (`20`, `0.02`) for `None`. Non-finite values
    /// have no JSON spelling and render as `null`.
    Num(f64, Option<usize>),
    /// `true` / `false`.
    Bool(bool),
    /// A string, escaped as `{:?}` escapes it (JSON's own escapes for
    /// quotes, backslashes, newlines and tabs).
    Str(String),
}

impl Json {
    /// Render in the artifact layout: the top-level object one field
    /// per line, an array directly inside it one element per line,
    /// everything deeper inline; a trailing newline. The output is a
    /// function of the value alone, so equal reports are equal files.
    pub fn render(&self) -> String {
        self.text(0) + "\n"
    }

    fn text(&self, depth: usize) -> String {
        match self {
            Json::Object(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(key, value)| format!("\"{key}\": {}", value.text(depth + 1)))
                    .collect();
                match depth {
                    0 => format!("{{\n  {}\n}}", fields.join(",\n  ")),
                    _ => format!("{{{}}}", fields.join(", ")),
                }
            }
            Json::Array(items) => {
                let items: Vec<String> = items.iter().map(|v| v.text(depth + 1)).collect();
                match depth {
                    1 => format!("[\n    {}\n  ]", items.join(",\n    ")),
                    _ => format!("[{}]", items.join(", ")),
                }
            }
            Json::Int(n) => n.to_string(),
            Json::Num(x, _) if !x.is_finite() => "null".to_owned(),
            Json::Num(x, Some(decimals)) => format!("{x:.decimals$}"),
            Json::Num(x, None) => x.to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Str(s) => format!("{s:?}"),
        }
    }
}

/// Write a report's JSON artifact, creating parent directories as
/// needed.
///
/// # Errors
///
/// I/O errors from directory creation or the write.
pub fn write_json(path: &std::path::Path, json: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, json.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.5), "0.5000");
        assert!(fmt(12345.0).contains('e'));
        assert!(fmt(0.0001).contains('e'));
    }

    #[test]
    fn fmt_duration_units() {
        use std::time::Duration;
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_duration(Duration::from_micros(5)).ends_with(" µs"));
        assert!(fmt_duration(Duration::from_nanos(50)).ends_with(" ns"));
    }

    #[test]
    fn json_renders_the_artifact_layout() {
        use Json::*;
        let doc = Object(vec![
            ("bench", Str("demo \"q\"\n".into())),
            ("delta", Num(20.0, None)),
            ("nan", Num(f64::NAN, Some(2))),
            ("heal", Object(vec![("period", Int(5)), ("on", Bool(true))])),
            (
                "cases",
                Array(vec![
                    Object(vec![("drop", Num(0.02, None)), ("rate", Num(0.5, Some(4)))]),
                    Object(vec![("list", Array(vec![Int(1), Int(2)]))]),
                ]),
            ),
        ]);
        let want = [
            "{",
            r#"  "bench": "demo \"q\"\n","#,
            r#"  "delta": 20,"#,
            r#"  "nan": null,"#,
            r#"  "heal": {"period": 5, "on": true},"#,
            r#"  "cases": ["#,
            r#"    {"drop": 0.02, "rate": 0.5000},"#,
            r#"    {"list": [1, 2]}"#,
            "  ]",
            "}",
            "",
        ];
        assert_eq!(doc.render(), want.join("\n"));

        // The writer creates missing parent directories.
        let dir = std::env::temp_dir().join(format!("swat-report-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_json(&path, &doc).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_renders_without_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
