//! Order statistics: medians and quartiles.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A single value known exactly (a count, or a value computed once per
    /// run): all three statistics are that value.
    pub fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// Quartile spread as a share of the median: `(q3 − q1) / median`.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles `(q1, q2, q3)` computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method),
/// so the spreads this benchmark reports match the ones anyone computes
/// from the same values. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let d = sorted(samples);
    let ld = d.len();
    match ld {
        0 => None,
        1 => Some((d[0], d[0], d[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Median, quartiles and count; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let (q1, _, q3) = quartiles(samples)?;
    Some(Summary {
        median: median(samples)?,
        q1,
        q3,
        n: samples.len(),
    })
}
