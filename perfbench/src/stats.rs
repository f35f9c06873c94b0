//! Order statistics and the output gate.

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Counts attempted operations (solves and output checks) and the ones
/// that failed, keeping the first few failure messages.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Gate {
    /// Records one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 16 {
                self.messages.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut gate = Gate::default();
        gate.check(true, || unreachable!());
        gate.check(false, || "bad".to_owned());
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.messages, ["bad"]);
    }
}
