//! Order statistics and the JSON text the benchmark prints.

/// Median, quartiles, tail and sample count of one measured quantity.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples above it (the
    /// maximum when there are ten samples or fewer).
    pub tail: f64,
    /// Which percentile `tail` is, in percent.
    pub tail_pct: f64,
}

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // Ten samples lie strictly above index n - 11.
        let (tail, tail_pct) = if n > 10 {
            (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
        } else {
            (sorted[n - 1], 100.0)
        };
        Self {
            n,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
            tail_pct,
        }
    }

    /// A single value reported as a one-sample summary.
    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }
}

/// Formats a float for JSON with every digit Rust keeps (non-finite values,
/// which JSON cannot hold, become `null`).
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(s.n, 5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.tail, 30.0);
        assert_eq!(s.tail_pct, 75.0);
    }
}
