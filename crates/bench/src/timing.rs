//! Head-to-head timing shared by the benches.

/// The median of a sample set.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The shared counterbalanced interleaving behind every head-to-head
/// measurement: one warmup call each, then `rounds` rounds alternating
/// ABBA / BAAB, so slow clock drift across the bench run (very visible on
/// small containers) cancels instead of systematically penalizing either
/// contender, and neither systematically owns the sequence boundaries.
/// Returns the raw nanosecond samples `(a, b)`.
pub fn counterbalanced_samples(
    rounds: usize,
    run_a: &mut dyn FnMut(),
    run_b: &mut dyn FnMut(),
) -> (Vec<u128>, Vec<u128>) {
    let mut samples_a = Vec::with_capacity(2 * rounds);
    let mut samples_b = Vec::with_capacity(2 * rounds);
    run_a();
    run_b();
    fn time(f: &mut dyn FnMut()) -> u128 {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_nanos()
    }
    for round in 0..rounds {
        if round % 2 == 0 {
            samples_a.push(time(run_a));
            samples_b.push(time(run_b));
            samples_b.push(time(run_b));
            samples_a.push(time(run_a));
        } else {
            samples_b.push(time(run_b));
            samples_a.push(time(run_a));
            samples_a.push(time(run_a));
            samples_b.push(time(run_b));
        }
    }
    (samples_a, samples_b)
}
