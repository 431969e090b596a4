//! Fixture: parallel float reductions (L7) — violations, the ordered
//! indexed-collect idiom, the integer-turbofish exemption, and escapes.

fn bad_same_line(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum()
}

fn bad_multi_line(xs: &[f64]) -> f64 {
    xs.par_iter()
        .map(|x| x.sqrt())
        .sum()
}

fn bad_closure_semicolons(xs: &[f64]) -> f64 {
    xs.par_iter()
        .map(|x| {
            let y = x + 1.0;
            y * y
        })
        .sum()
}

fn good_ordered_collect(xs: &[f64]) -> f64 {
    let doubled: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
    doubled.iter().sum()
}

fn good_integer_turbofish(xs: &[u64]) -> u64 {
    xs.par_iter().map(|x| x + 1).sum::<u64>()
}

fn allowed_reduction(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum() // lint: allow(L7: fixture escape; tolerance-tested fold)
}

fn bare_allowed_reduction(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum() // lint: allow(L7)
}
