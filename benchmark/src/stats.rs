//! Quantiles, and the mean-of-windows rule every reported timing
//! follows.

/// The `q`-quantile of `sorted` (ascending), nearest rank. 0 for an
/// empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Sorts `sample` and returns its `q`-quantile.
pub fn quantile_of(sample: &mut [u64], q: f64) -> f64 {
    sample.sort_unstable();
    quantile(sample, q)
}

/// The median of `values`; an even count averages the middle two.
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The mean of what is left after dropping the lowest and the highest
/// tenth of `values` (rounded down, so fewer than ten values are all
/// kept): a stalled window or two cannot move it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// `(max - min) / median`: how far the windows of one run disagree.
pub fn spread_frac(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// What the closed-loop clients saw in one measured window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// `/search` latencies, ns.
    pub search_ns: Vec<u64>,
    /// 200-responses of any kind.
    pub ok: u64,
}

/// The windows of one load phase, reduced to the reported numbers:
/// each is the trimmed mean over windows of the per-window value,
/// scaled to reference machine speed (see [`crate::reference`]). The
/// `raw_*` fields are the same means as the clock read them.
///
/// A mean, not the median: on two cores the two request pipelines
/// lock into a fast or a slow rhythm (13 % apart on
/// `chem_large_exact`) that lasts until the next pause, so the windows
/// of a run are a mixture of two modes, and the median of a mixture
/// jumps from one mode to the other with its weights. Many short
/// windows and their mean took the quartile spread over runs from 8 %
/// to 4 %.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    pub throughput_ops_s: f64,
    pub search_p50_us: f64,
    pub search_p99_us: f64,
    pub raw_throughput_ops_s: f64,
    pub raw_search_p50_us: f64,
    pub raw_search_p99_us: f64,
    /// Trimmed mean reference rate of the run over the nominal: below 1
    /// the machine was slower than the reference machine.
    pub machine_speed: f64,
    pub window_spread_frac: f64,
    pub search_samples: u64,
    /// Per-window throughput and search p50, as the clock read them.
    pub window_throughputs: Vec<f64>,
    pub window_p50_us: Vec<f64>,
}

/// `reference_ops_s` are the reference rates measured in the gaps
/// around the windows; `nominal_ops_s` is the reference machine's.
/// The whole run is scaled by one factor: a gap is too short to say
/// how fast the machine was in the window next to it, but the gaps of
/// a run together say how fast it was during the run.
pub fn summarize(
    windows: &mut [Window],
    window_s: f64,
    reference_ops_s: &[f64],
    nominal_ops_s: f64,
) -> LoadSummary {
    let throughputs: Vec<f64> = windows.iter().map(|w| w.ok as f64 / window_s).collect();
    let mut p50 = Vec::with_capacity(windows.len());
    let mut p99 = Vec::with_capacity(windows.len());
    let mut samples = 0;
    for w in windows.iter_mut() {
        samples += w.search_ns.len() as u64;
        p50.push(quantile_of(&mut w.search_ns, 0.50) / 1e3);
        p99.push(quantile(&w.search_ns, 0.99) / 1e3);
    }
    let speed = trimmed_mean(reference_ops_s) / nominal_ops_s;
    let raw = (
        trimmed_mean(&throughputs),
        trimmed_mean(&p50),
        trimmed_mean(&p99),
    );
    LoadSummary {
        throughput_ops_s: raw.0 / speed,
        search_p50_us: raw.1 * speed,
        search_p99_us: raw.2 * speed,
        raw_throughput_ops_s: raw.0,
        raw_search_p50_us: raw.1,
        raw_search_p99_us: raw.2,
        machine_speed: speed,
        window_spread_frac: spread_frac(&throughputs),
        search_samples: samples,
        window_throughputs: throughputs,
        window_p50_us: p50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_the_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 0.5), 51.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let mut unsorted = [9, 1, 5];
        assert_eq!(quantile_of(&mut unsorted, 0.5), 5.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_trimmed_mean_ignores_a_tenth_at_either_end() {
        let mut v = vec![10.0; 18];
        v.push(1.0e6); // a stall
        v.push(0.0);
        assert_eq!(trimmed_mean(&v), 10.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn a_run_reports_the_mean_of_its_windows() {
        let window = |lat_ns: u64, ok: u64| Window {
            search_ns: vec![lat_ns; ok as usize],
            ok,
        };
        // Two rhythms, three windows in one and one in the other.
        let mut windows = vec![
            window(100_000, 1000),
            window(100_000, 1000),
            window(140_000, 720),
            window(100_000, 1000),
        ];
        let s = summarize(&mut windows, 2.0, &[50.0; 5], 50.0);
        assert_eq!(s.throughput_ops_s, 465.0);
        assert_eq!(s.search_p50_us, 110.0);
        assert_eq!(s.machine_speed, 1.0);
        assert_eq!(s.search_samples, 3720);
        assert!((s.window_spread_frac - (500.0 - 360.0) / 500.0).abs() < 1e-12);
    }

    #[test]
    fn a_machine_at_half_speed_reports_what_full_speed_would_have() {
        let mut windows = vec![
            Window {
                search_ns: vec![200_000; 500],
                ok: 500,
            };
            3
        ];
        // The reference loop ran at half its nominal rate throughout.
        let s = summarize(&mut windows, 1.0, &[20.0, 30.0, 25.0, 25.0], 50.0);
        assert_eq!(s.machine_speed, 0.5);
        assert_eq!(s.raw_throughput_ops_s, 500.0);
        assert_eq!(s.throughput_ops_s, 1000.0);
        assert_eq!(s.raw_search_p50_us, 200.0);
        assert_eq!(s.search_p50_us, 100.0);
    }
}
