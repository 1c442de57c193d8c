//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile and the sample count it was taken from.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it (nearest rank). With fewer than forty samples no
/// percentile qualifies and the maximum is reported as p100.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0] {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return Tail {
                value: s[rank - 1],
                pct,
                n,
            };
        }
    }
    Tail {
        value: s.last().copied().unwrap_or(0.0),
        pct: 100.0,
        n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.n), (95.0, 190.0, 200));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).pct, 100.0);
        assert_eq!(tail(&few).value, 12.0);
    }
}
